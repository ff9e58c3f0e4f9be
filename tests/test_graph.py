import ast
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import otisham
from otisham.graph import (
    Graph,
    GraphError,
    cycle_violation,
    graph_hash,
    is_hamiltonian_cycle,
)
from otisham.io import read_edge_list, to_dot, write_cycle_certificate, read_cycle_certificate, write_edge_list
from otisham.topology import gen_bowtie, gen_butterfly, gen_cycle, gen_path, otis

import graph_reference
from conftest import GOLDEN_BASES, random_graph


def test_basic_container_semantics():
    g = Graph()
    g.link(g.add_vertex("a"), g.add_vertex("b"))
    assert g.degree("a") == 1
    assert g.neighbors("b") == ["a"]
    assert g.has_edge("b", "a")
    assert not g.has_edge("a", "a")
    with pytest.raises(GraphError):
        g.edge_index("a", "a")
    with pytest.raises(GraphError):
        g.link(g.add_vertex("a"), g.add_vertex("a"))
    with pytest.raises(GraphError):
        g.link(g.add_vertex("a"), g.add_vertex("b"))  # parallel


def test_cycle_graph_degrees():
    c5 = gen_cycle(5)
    assert all(c5.degree(v) == 2 for v in c5.vertices())


def test_bowtie_cut_vertex_degree():
    g = gen_bowtie(4, 4)
    assert g.degree("4") == 4


def test_path_middle_neighbors():
    p3 = gen_path(3)
    assert sorted(p3.neighbors("2")) == ["1", "3"]


def test_is_hamiltonian_cycle_examples():
    c4 = gen_cycle(4)
    assert is_hamiltonian_cycle(c4, ["1", "2", "3", "4"])
    assert not is_hamiltonian_cycle(c4, ["1", "3", "2", "4"])
    assert cycle_violation(c4, ["1", "2", "3"]) == "length-mismatch"
    assert cycle_violation(c4, ["1", "2", "3", "3"]) == "duplicate-vertex"
    assert cycle_violation(c4, ["1", "2", "3", "x"]) == "unknown-vertex"


@given(st.integers(min_value=0, max_value=7), st.booleans())
def test_cycle_accepts_rotations_and_reversal(shift, flip):
    c8 = gen_cycle(8)
    order = [str(v) for v in range(1, 9)]
    order = order[shift:] + order[:shift]
    if flip:
        order = order[::-1]
    assert is_hamiltonian_cycle(c8, order)


def cycle_orders(rng: random.Random, cycle: list[str]) -> list[list[str]]:
    """Orders around ``cycle``, a Hamiltonian cycle of the graph: its
    rotations and reversals, and orders broken in each way a check names."""
    n = len(cycle)
    k = rng.randrange(n)
    turned = cycle[k:] + cycle[:k]
    valid = turned[::-1] if rng.random() < 0.5 else turned
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    swapped = list(valid)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    repeat_known = list(valid)
    repeat_known[i] = valid[j]
    repeat_unknown = list(valid)
    repeat_unknown[i] = repeat_unknown[j] = "x"
    repeat_and_unknown = list(repeat_known)
    if n > 2:  # an unknown label besides a repeated known one
        repeat_and_unknown[next(p for p in range(n) if p not in (i, j))] = "y"
    unknown = list(valid)
    unknown[i] = "x"
    return [
        list(cycle),  # the hidden cycle's own first and closing steps
        valid,
        valid[:-1],
        valid + [valid[0]],
        valid + ["x"],
        swapped,
        repeat_known,
        repeat_unknown,
        repeat_and_unknown,
        unknown,
        rng.sample(cycle, n),  # often several non-adjacent steps
        valid[1:] + valid[:1],
        valid[::-1],
    ]


def test_cycle_violation_matches_the_label_level_reference():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 10)
        cycle = rng.sample([str(v) for v in range(1, n + 1)], n)
        # a graph around a hidden cycle (a path or less below 3 vertices)
        # with random chords, or with the closing step or another step left out
        steps = list(zip(cycle, cycle[1:] + cycle[:1]))[: n if n > 2 else n - 1]
        dropped = rng.choice([None, None, 0, len(steps) - 1])
        edges = {tuple(sorted(s)) for k, s in enumerate(steps) if k != dropped}
        for u in cycle:
            for v in cycle:
                if u < v and rng.random() < 0.2:
                    edges.add((u, v))
        g = Graph.from_edges(sorted(edges), vertices=cycle)
        for order in cycle_orders(rng, cycle):
            got = cycle_violation(g, order)
            assert got == graph_reference.cycle_violation(g, order), (g.edges(), order)
            assert cycle_violation(g, tuple(order)) == got
            seen.add(got.split(":")[0] if got else got)
    assert seen == {None, "length-mismatch", "duplicate-vertex", "unknown-vertex", "too-short", "non-adjacent-step"}


@given(st.integers(min_value=0, max_value=10_000))
def test_handshake_on_random_graphs(seed):
    g = random_graph(random.Random(seed))
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.n_edges


@given(st.integers(min_value=0, max_value=2_000))
def test_bfs_distance_symmetry(seed):
    from collections import deque

    g = random_graph(random.Random(seed), max_vertices=8)
    verts = g.vertices()

    def dist(a, b):
        seen = {a: 0}
        q = deque([a])
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                if w not in seen:
                    seen[w] = seen[u] + 1
                    q.append(w)
        return seen.get(b, math.inf)

    for a in verts:
        for b in verts:
            assert dist(a, b) == dist(b, a)


def test_edge_list_round_trip():
    g = otis(gen_bowtie(3, 4))
    text = write_edge_list(g)
    assert text.startswith("V 36\n")
    back = read_edge_list(text)
    assert back.vertices() == g.vertices()
    assert sorted(map(sorted, back.edges())) == sorted(map(sorted, g.edges()))
    assert graph_hash(back) == graph_hash(g)


def test_edge_list_round_trips_isolated_vertex():
    g = gen_path(1)
    back = read_edge_list(write_edge_list(g))
    assert back.vertices() == ["1"]
    assert back.n_edges == 0


def test_edge_list_rejects_malformed():
    with pytest.raises(GraphError):
        read_edge_list("1 2\n")
    with pytest.raises(GraphError):
        read_edge_list("V 3\n1 2\n")


def test_cycle_certificate_round_trip():
    c5 = gen_cycle(5)
    text = write_cycle_certificate(c5, ["1", "2", "3", "4", "5"])
    cert = read_cycle_certificate(text)
    assert cert["verified"] is True
    assert cert["graph_hash"] == graph_hash(c5)


@pytest.mark.parametrize(
    "field, value",
    [("order", "abc"), ("order", ["1", 2]), ("graph_hash", 5), ("verified", "yes"), ("verified", 1)],
)
def test_cycle_certificate_fields_are_type_checked(field, value):
    cert = json.loads(write_cycle_certificate(gen_cycle(3), ["1", "2", "3"]))
    cert[field] = value
    with pytest.raises(GraphError):
        read_cycle_certificate(json.dumps(cert))
    with pytest.raises(GraphError):
        read_cycle_certificate(json.dumps([cert]))


def test_edge_ids_store_lower_index_first_and_keep_orientation():
    g = Graph.from_edges([("b", "a"), ("a", "c")], vertices=["c"])
    assert g.labels == ["c", "b", "a"] and g.index == {"c": 0, "b": 1, "a": 2}
    assert g.ends == [(1, 2), (0, 2)]
    assert g.edges() == [("b", "a"), ("a", "c")]
    assert g.incident == [[1], [0], [0, 1]]
    assert g.edge_index("a", "b") == g.edge_index("b", "a") == 0
    with pytest.raises(GraphError):
        g.edge_index("a", "zzz")
    with pytest.raises(GraphError):
        g.edge_index("b", "c")


def test_dot_export_groups_clusters():
    dot = to_dot(otis(gen_cycle(3)))
    assert dot.count("subgraph") == 3
    assert '"1:2" -- "2:1"' in dot or '"2:1" -- "1:2"' in dot


def test_graph_hash_insensitive_to_insertion_order():
    g1 = Graph.from_edges([("1", "2"), ("2", "3")])
    g2 = Graph.from_edges([("2", "3"), ("1", "2")])
    assert graph_hash(g1) == graph_hash(g2)


def reference_graphs() -> list[Graph]:
    """200 random graphs, every golden base and its OTIS network, and one
    graph whose labels are prefixes of one another, with and without a colon."""
    rng = random.Random(20260808)
    graphs = [random_graph(rng) for _ in range(200)]
    for name in sorted(GOLDEN_BASES):
        base = GOLDEN_BASES[name]()
        graphs += [base, otis(base)]
    graphs.append(Graph.from_edges([("a", "ab"), ("ab", "a:b"), ("a:b", "a")], vertices=["b"]))
    return graphs


def test_graph_hash_matches_the_per_update_reference():
    for g in reference_graphs():
        assert graph_hash(g) == graph_reference.graph_hash(g), g


def test_edge_lists_and_from_edges_match_the_label_level_reference():
    arrays = graph_reference.arrays
    for g in reference_graphs():
        text = write_edge_list(g)
        assert text == graph_reference.write_edge_list(g)
        assert arrays(read_edge_list(text)) == arrays(graph_reference.read_edge_list(text))
        edges, verts = g.edges(), g.vertices()
        for vertices in (verts, ()):
            want = graph_reference.from_edges(edges, vertices)
            assert arrays(Graph.from_edges(edges, vertices)) == arrays(want)


def test_generators_match_the_label_level_reference():
    arrays = graph_reference.arrays
    for m in range(3, 40):
        for n in range(3, 43 - m):  # every pair with m + n - 1 <= 41
            assert arrays(gen_bowtie(m, n)) == arrays(graph_reference.gen_bowtie(m, n)), (m, n)
    for dim in range(3, 7):
        assert arrays(gen_butterfly(dim)) == arrays(graph_reference.gen_butterfly(dim)), dim


def test_otis_links_the_ints_its_index_holds():
    # one int object per vertex, not a fresh one per edge end
    g = otis(gen_bowtie(31, 30))
    held = {id(k) for k in g.index.values()}
    assert all(id(a) in held and id(b) in held for a, b in g.ends)


GRAPH_ARRAYS = {"labels", "index", "ends", "flipped", "edge_id", "incident"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault", "popitem", "sort", "reverse"}


def _names_graph_array(node) -> bool:
    """Whether ``node`` is ``x.<array>`` or an item of one, ``x.<array>[k]...``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in GRAPH_ARRAYS


def _writes_graph_array(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            if any(map(_names_graph_array, target.elts if isinstance(target, ast.Tuple) else [target])):
                return True
    return False


def test_only_add_vertex_and_link_write_graph_arrays():
    # one way in for vertices and one for edges; __init__ only creates the
    # empty arrays
    writers = []
    for path in sorted(Path(otisham.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            methods = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in methods:
                if isinstance(fn, ast.FunctionDef) and _writes_graph_array(fn):
                    owner = f"{top.name}." if top is not fn else ""
                    writers.append(f"{path.stem}.{owner}{fn.name}")
    assert writers == ["graph.Graph.__init__", "graph.Graph.add_vertex", "graph.Graph.link"]


def test_vertex_labels_are_rejected_exactly_at_whitespace():
    with pytest.raises(GraphError):
        Graph().add_vertex("")
    wrong = []
    for start in range(0, 0x110000, 0x1000):
        g = Graph()  # one graph per block keeps the label index small
        for c in range(start, start + 0x1000):
            try:
                g.add_vertex("a" + chr(c))
                rejected = False
            except GraphError:
                rejected = True
            if rejected != chr(c).isspace():
                wrong.append(c)
    assert wrong == []
