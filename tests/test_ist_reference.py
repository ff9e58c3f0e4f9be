"""``trees.independence_report`` against the root-path walk it replaced.

Both must return equal ``IndependenceReport``s, ``first_violation``
included: the Fenwick sweep runs the same checks in the same order and
names the same first offending vertex and shared vertex.
"""

import random

import pytest

from otisham.graph import Graph
from otisham.trees import TreePair, build_ists, independence_report

import ist_reference
from conftest import sweep_parameter_pairs, sweep_roots

CASES_PER_KIND = 400


def assert_same_report(pair, graph):
    got = independence_report(pair, graph)
    want = ist_reference.independence_report(pair, graph)
    assert got == want, (pair, graph.edges())
    return got


def cycle_graph(rng: random.Random, k: int) -> tuple[Graph, list[str]]:
    """A Hamiltonian cycle over k random labels plus random chords; the
    vertices are declared in another order than the cycle's, so that graph
    order, cycle order and label order all differ."""
    order = [str(x) for x in rng.sample(range(1, 20 * k), k)]
    g = Graph()
    for v in rng.sample(order, k):
        g.add_vertex(v)
    for j, u in enumerate(order):
        g.link(g.add_vertex(u), g.add_vertex(order[(j + 1) % k]))
    p = rng.uniform(0.0, 0.5)
    for a in range(k):
        for b in range(a + 2, k - (a == 0)):
            if rng.random() < p:
                g.link(g.add_vertex(order[a]), g.add_vertex(order[b]))
    return g, order


def random_tree(rng: random.Random, graph: Graph, root: str) -> dict[str, str]:
    """A spanning tree grown from ``root`` by a random frontier order."""
    parent, seen, frontier = {}, {root}, [root]
    while frontier:
        u = frontier.pop(rng.randrange(len(frontier)))
        for w in rng.sample(graph.neighbors(u), graph.degree(u)):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                frontier.append(w)
    return parent


def cycle_pair(rng: random.Random, k_max: int = 14) -> tuple[TreePair, Graph, list[str]]:
    graph, order = cycle_graph(rng, rng.randint(3, k_max))
    return build_ists(order, rng.choice(order)), graph, order


def with_parents(pair: TreePair, parent1: dict, parent2: dict) -> TreePair:
    return TreePair(pair.root, parent1, parent2)


def independent(rng):
    pair, graph, _ = cycle_pair(rng)
    return pair, graph


def shared_interior(rng):
    # two random spanning trees of a graph with chords share interior
    # vertices more often than not
    graph, order = cycle_graph(rng, rng.randint(4, 14))
    root = rng.choice(order)
    return TreePair(root, random_tree(rng, graph, root), random_tree(rng, graph, root)), graph


def shared_edge_only(rng):
    # the root's cycle successor hangs off the root in both trees
    pair, graph, order = cycle_pair(rng)
    k = order.index(pair.root)
    succ = order[(k + 1) % len(order)]
    parent1 = dict(pair.parent1)
    parent1[succ] = pair.root
    return with_parents(pair, parent1, pair.parent2), graph


def descendants(parent: dict, x: str) -> set[str]:
    """The vertices other than ``x`` whose parent chain reaches ``x``."""
    found = set()
    for v in sorted(parent):
        seen, w = {v}, parent[v]
        while w != x and w in parent and w not in seen:
            seen.add(w)
            w = parent[w]
        if w == x and v != x:
            found.add(v)
    return found


def broken_chain(rng):
    # every change leaves some vertex without a path to the root: a parent
    # removed, a loop closed, or a parent given to the root
    pair, graph = independent(rng) if rng.random() < 0.5 else shared_interior(rng)
    parents = [dict(pair.parent1), dict(pair.parent2)]
    for _ in range(rng.randint(1, 2)):
        parent = rng.choice(parents)
        # never the root, which is a key once mode 3 gives it a parent:
        # deleting the root's parent would mend the tree
        x = rng.choice(sorted(set(parent) - {pair.root}))
        mode = rng.randrange(4)
        if mode == 1:  # a two-cycle x <-> a child of x
            inner = sorted({p for p in parent.values() if p in parent})
            if inner:
                x = rng.choice(inner)
                parent[x] = rng.choice([c for c, p in parent.items() if p == x])
                continue
        elif mode == 2:  # a longer loop: x hangs off a neighbour below it
            below = descendants(parent, x)
            loops = [w for w in graph.neighbors(x) if w in below]
            if loops:
                parent[x] = rng.choice(loops)
                continue
        elif mode == 3:  # the root gets a parent of its own
            parent[pair.root] = rng.choice(graph.neighbors(pair.root))
            continue
        del parent[x]  # a missing parent, also when mode 1 or 2 finds no pick
    return with_parents(pair, *parents), graph


def missing_edge(rng):
    pair, graph = independent(rng) if rng.random() < 0.5 else shared_interior(rng)
    parents = [dict(pair.parent1), dict(pair.parent2)]
    parent = rng.choice(parents)
    x = rng.choice(sorted(parent))
    mode = rng.randrange(3)
    if mode == 0:  # an unknown label
        parent[x] = "zz"
    elif mode == 1:  # a vertex that is not adjacent, or x itself
        far = [w for w in graph.vertices() if not graph.has_edge(x, w)]
        parent[x] = rng.choice(far)
    else:  # an unknown child
        parent["zz"] = x
    return with_parents(pair, *parents), graph


def root_with_parent(rng):
    # an otherwise valid pair whose root hangs off a neighbour in one or both
    # trees, which makes that tree's edges a cycle rather than a tree
    pair, graph = independent(rng) if rng.random() < 0.5 else shared_interior(rng)
    parents = [dict(pair.parent1), dict(pair.parent2)]
    for parent in rng.sample(parents, rng.randint(1, 2)):
        parent[pair.root] = rng.choice(graph.neighbors(pair.root))
    return with_parents(pair, *parents), graph


def root_outside_graph(rng):
    pair, graph, _ = cycle_pair(rng)
    return TreePair("zz", pair.parent1, pair.parent2), graph


KINDS = {
    "independent": independent,
    "shared interior vertex": shared_interior,
    "shared edge only": shared_edge_only,
    "broken or looping chain": broken_chain,
    "tree edge not in graph": missing_edge,
    "root with a parent": root_with_parent,
    "root outside the graph": root_outside_graph,
}


def outcome(report) -> str:
    """The verdict kind, so each generator can be shown to reach its case."""
    if report.first_violation is None:
        return f"vertex={report.vertex_disjoint} edge={report.edge_disjoint}"
    return report.first_violation.split(" ")[0]  # 'tree', 'root', 'no' or 'paths'


EXPECTED = {
    "independent": "vertex=True edge=True",
    "shared interior vertex": "paths",
    "shared edge only": "vertex=True edge=False",
    "broken or looping chain": "no",
    "tree edge not in graph": "tree",
    "root with a parent": "root",
    "root outside the graph": "no",
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_tree_pairs_match(kind):
    rng = random.Random(f"ist {kind}")
    seen = {}
    for _ in range(CASES_PER_KIND):
        report = assert_same_report(*KINDS[kind](rng))
        seen[outcome(report)] = seen.get(outcome(report), 0) + 1
    assert seen.get(EXPECTED[kind], 0) >= CASES_PER_KIND // 4, seen
    if kind != "independent":  # a valid pair here is a case the generator failed to spoil
        assert EXPECTED["independent"] not in seen, seen


def test_degenerate_graphs_match():
    # no vertices, the root alone, and one vertex that is not the root
    graphs = [Graph(), Graph.from_edges([], vertices=["a"]), Graph.from_edges([], vertices=["b"])]
    for pair in (build_ists(["a", "b", "c"], "a"), TreePair("a", {}, {})):
        for graph in graphs:
            assert_same_report(pair, graph)


@pytest.mark.parametrize("m,n", sweep_parameter_pairs(21))
def test_sweep_build_reports_match(m, n, sweep_builds):
    result = sweep_builds[(m, n)]
    for root in sweep_roots(m, n, result.graph):
        report = assert_same_report(build_ists(result.cycle, root), result.graph)
        assert report.vertex_disjoint and report.edge_disjoint and report.first_violation is None
