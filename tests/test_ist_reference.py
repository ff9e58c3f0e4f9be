"""``trees.independence_report`` against the root-path walk in
``ist_reference``.

On every pair ``build_ists`` gives, from any order and against any graph,
both must return equal ``IndependenceReport``s, ``first_violation``
included.  On hand-damaged pairs of other shapes the library check must
reject, and must never report a disjointness the walker denies.
"""

import random

import pytest

from otisham.graph import Graph
from otisham.topology import gen_bowtie, otis
from otisham.trees import TreePair, build_ists, independence_report

import ist_reference
from graph_reference import degree, has_edge, neighbors
from conftest import sweep_parameter_pairs, sweep_roots

CASES_PER_KIND = 400


def assert_same_report(pair, graph):
    got = independence_report(pair, graph)
    want = ist_reference.independence_report(pair, graph)
    assert got == want, (pair, graph.edges())
    return got


def assert_no_overclaim(pair, graph):
    """The library report claims no disjointness that the walker's denies;
    both reports are returned, the library's first."""
    got = independence_report(pair, graph)
    want = ist_reference.independence_report(pair, graph)
    assert want.vertex_disjoint or not got.vertex_disjoint, (pair, graph.edges(), got, want)
    assert want.edge_disjoint or not got.edge_disjoint, (pair, graph.edges(), got, want)
    return got, want


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
        for w in rng.sample(neighbors(graph, u), degree(graph, u)):
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
            loops = [w for w in neighbors(graph, x) if w in below]
            if loops:
                parent[x] = rng.choice(loops)
                continue
        elif mode == 3:  # the root gets a parent of its own
            parent[pair.root] = rng.choice(neighbors(graph, pair.root))
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
        far = [w for w in graph.labels if not has_edge(graph, x, w)]
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
        parent[pair.root] = rng.choice(neighbors(graph, pair.root))
    return with_parents(pair, *parents), graph


def vertex_outside_graph(rng):
    # a valid pair in which a tree names a label the graph lacks in place of
    # one of its vertices, as a child, as a parent, or each in one tree
    pair, graph, _ = cycle_pair(rng)
    parents = [dict(pair.parent1), dict(pair.parent2)]
    mode = rng.randrange(3)
    child_tree, parent_tree = rng.sample(parents, 2) if mode == 2 else [rng.choice(parents)] * 2
    if mode != 1:  # an unknown child, at the place of the child it renames
        x = rng.choice(sorted(child_tree))
        renamed = {("zz" if c == x else c): p for c, p in child_tree.items()}
        child_tree.clear()
        child_tree.update(renamed)
    if mode != 0:  # an unknown parent
        parent_tree[rng.choice(sorted(set(parent_tree) - {"zz"}))] = "zz"
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
    "tree vertex outside the graph": vertex_outside_graph,
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
    "tree vertex outside the graph": "tree",
    "root with a parent": "root",
    "root outside the graph": "no",
}


def trees_graph(pair: TreePair) -> Graph:
    """The graph of the trees' own edges, which is all the library check
    sees when it is given no graph."""
    edges = {frozenset(e) for parent in (pair.parent1, pair.parent2) for e in parent.items()}
    return Graph.from_edges(map(sorted, edges), vertices=[pair.root, *pair.parent1, *pair.parent2])


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_random_tree_pairs_match(kind):
    # the walker's verdicts show that each generator reaches its case; the
    # library matches it exactly on the unspoiled pairs and rejects the rest
    rng = random.Random(f"ist {kind}")
    seen = {}
    for _ in range(CASES_PER_KIND):
        pair, graph = KINDS[kind](rng)
        got, want = assert_no_overclaim(pair, graph)
        if kind == "independent":  # with a graph or without
            assert got == want == independence_report(pair), (pair, graph.edges())
        else:
            assert not got.vertex_disjoint and got.first_violation, (pair, graph.edges(), got)
        if kind == "tree vertex outside the graph":  # named as the walker names it
            assert got == want, (pair, graph.edges())
        alone = independence_report(pair)
        if alone.vertex_disjoint:  # then the trees' own edges bear it out
            assert alone == ist_reference.independence_report(pair, trees_graph(pair)), pair
        seen[outcome(want)] = seen.get(outcome(want), 0) + 1
    assert seen.get(EXPECTED[kind], 0) >= CASES_PER_KIND // 4, seen
    if kind != "independent":  # a valid pair here is a case the generator failed to spoil
        assert EXPECTED["independent"] not in seen, seen


def damaged_order(rng):
    # two entries swapped or a stretch reversed: a walk the graph may lack
    graph, order = cycle_graph(rng, rng.randint(3, 14))
    a, b = sorted(rng.sample(range(len(order)), 2))
    if rng.random() < 0.5:
        order[a], order[b] = order[b], order[a]
    else:
        order[a:b + 1] = order[a:b + 1][::-1]
    return order, graph


def order_over_subset(rng):
    # the graph keeps vertices that the order leaves out
    graph, order = cycle_graph(rng, rng.randint(4, 14))
    return rng.sample(order, rng.randint(3, len(order) - 1)), graph


def foreign_labels(rng):
    graph, order = cycle_graph(rng, rng.randint(3, 14))
    for j in rng.sample(range(len(order)), rng.randint(1, 2)):
        order[j] = f"zz{j}"
    return order, graph


def wrong_graph(rng):
    # another cycle graph over labels that may overlap, the graph less one
    # cycle edge, or the graph plus a vertex of its own
    graph, order = cycle_graph(rng, rng.randint(3, 14))
    mode = rng.randrange(3)
    if mode == 0:
        return order, cycle_graph(rng, rng.randint(3, 14))[0]
    if mode == 1:
        j = rng.randrange(len(order))
        cut = {order[j], order[(j + 1) % len(order)]}
        return order, Graph.from_edges((e for e in graph.edges() if set(e) != cut), vertices=graph.labels)
    graph.add_vertex("zz")
    return order, graph


ORDER_DAMAGE = {
    "damaged order": damaged_order,
    "order over a subset": order_over_subset,
    "foreign labels": foreign_labels,
    "wrong graph": wrong_graph,
}


@pytest.mark.parametrize("damage", sorted(ORDER_DAMAGE))
def test_build_ists_pairs_match(damage):
    rng = random.Random(f"ist order {damage}")
    rejected = 0
    for _ in range(CASES_PER_KIND):
        order, graph = ORDER_DAMAGE[damage](rng)
        report = assert_same_report(build_ists(order, rng.choice(order)), graph)
        rejected += not report.vertex_disjoint
    assert rejected >= CASES_PER_KIND // 4


def test_degenerate_graphs_match():
    # no vertices, the root alone, one vertex that is not the root, and one
    # edge, whose two vertices' root paths are that same edge
    graphs = [Graph(), Graph.from_edges([], vertices=["a"]), Graph.from_edges([], vertices=["b"]),
              Graph.from_edges([("a", "b")])]
    for pair in (build_ists(["a", "b", "c"], "a"), TreePair("a", {}, {}), TreePair("a", {"b": "a"}, {"b": "a"})):
        for graph in graphs:
            assert_same_report(pair, graph)
    assert independence_report(TreePair("a", {"b": "a"}, {"b": "a"})) == (True, False, None)


@pytest.mark.parametrize("m,n", sweep_parameter_pairs(21))
def test_sweep_build_reports_match(m, n, sweep_builds):
    result = sweep_builds[(m, n)]
    graph = otis(gen_bowtie(m, n))
    for root in sweep_roots(m, n, graph):
        report = assert_same_report(build_ists(result.cycle, root), graph)
        assert report.vertex_disjoint and report.edge_disjoint and report.first_violation is None
