import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from otisham.graph import (
    Graph,
    GraphError,
    cycle_violation,
    graph_hash,
    is_hamiltonian_cycle,
)
from otisham.io import read_edge_list, to_dot, write_cycle_certificate, read_cycle_certificate, write_edge_list
from otisham.topology import gen_bowtie, gen_cycle, gen_path, otis

from conftest import random_graph


def test_basic_container_semantics():
    g = Graph()
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge("a", "b")
    assert g.degree("a") == 1
    assert g.neighbors("b") == ["a"]
    assert g.has_edge("b", "a")
    with pytest.raises(GraphError):
        g.add_edge("a", "a")
    with pytest.raises(GraphError):
        g.add_edge("a", "b")  # parallel
    with pytest.raises(GraphError):
        g.add_edge("a", "zzz")  # undeclared endpoint


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
