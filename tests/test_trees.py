import random

import pytest
from hypothesis import given, strategies as st

from otisham.constructive import BuildResult, build_ham_cycle
from otisham.graph import Graph, GraphError
from otisham.topology import gen_bowtie, gen_cycle, otis
from otisham.trees import TreePair, build_ists, independence_report

import ist_reference
from ist_reference import is_spanning_tree, tree_edges


def test_c5_tree_pair_matches_arc_structure():
    pair = build_ists(("1", "2", "3", "4", "5"), "1")
    # first tree drops (1,2): path 1-5-4-3-2
    assert pair.parent1 == {"5": "1", "4": "5", "3": "4", "2": "3"}
    # second tree drops (5,1): path 1-2-3-4-5
    assert pair.parent2 == {"2": "1", "3": "2", "4": "3", "5": "4"}
    assert independence_report(pair, gen_cycle(5)).vertex_disjoint


def test_c3_any_root():
    c3 = gen_cycle(3)
    for root in "123":
        pair = build_ists(("1", "2", "3"), root)
        assert independence_report(pair, c3).vertex_disjoint


def test_root_must_be_on_cycle():
    with pytest.raises(GraphError):
        build_ists(("1", "2", "3"), "9")


def test_cycle_must_not_repeat_a_vertex():
    # a-b-c-a-d-e-a walks the bowtie, but visits its cut vertex a twice
    with pytest.raises(GraphError, match="'a' appears more than once"):
        build_ists(tuple("abcade"), "a")


def test_identical_trees_are_not_independent():
    c5 = gen_cycle(5)
    pair = build_ists(("1", "2", "3", "4", "5"), "1")
    forged = TreePair(root=pair.root, parent1=pair.parent2, parent2=pair.parent2)
    assert not independence_report(forged, c5).vertex_disjoint


def test_an_edge_shared_in_opposite_directions_is_reported():
    # v's root paths v-a-b-r and v-b-a-r share the edge {a, b}, whose child
    # end is a in the first tree and b in the second; no edge has the same
    # child end in both trees
    graph = Graph.from_edges([("r", "a"), ("r", "b"), ("a", "b"), ("a", "v"), ("b", "v")])
    pair = TreePair("r", {"v": "a", "a": "b", "b": "r"}, {"v": "b", "b": "a", "a": "r"})
    report = independence_report(pair, graph)
    assert (report.vertex_disjoint, report.edge_disjoint) == (False, False)
    assert ist_reference.independence_report(pair, graph) == (False, False, "paths to v share a")


def test_a_pair_of_another_shape_is_rejected_at_its_first_fault():
    # the walker accepts a star's one-edge root paths as vertex-disjoint;
    # the check takes only one path walked both ways
    star = TreePair("r", {"a": "r", "b": "r"}, {"a": "r", "b": "r"})
    assert ist_reference.independence_report(star, Graph.from_edges([("r", "a"), ("r", "b")])) == (True, False, None)
    assert independence_report(star) == (False, False, "tree 1 branches at r")
    # tree 1 is the path r-a-b, and tree 2 walks down it too
    same_way = TreePair("r", {"a": "r", "b": "a"}, {"a": "r", "b": "a"})
    assert independence_report(same_way) == (False, False, "tree 2 leaves the path at a")


def test_root_with_a_parent_is_not_a_tree_pair():
    # the two arcs of the closed walk a-b-c-a-d-e-a on the bowtie, each with
    # five edges on five vertices: the root's parent closes a triangle
    bowtie = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")])
    parent1 = {"a": "d", "b": "c", "c": "a", "d": "e", "e": "a"}
    parent2 = {"a": "c", "b": "a", "c": "b", "d": "a", "e": "d"}
    pair = TreePair("a", parent1, parent2)
    report = independence_report(pair, bowtie)
    assert (report.vertex_disjoint, report.edge_disjoint) == (False, False)
    assert report.first_violation == "root a has a parent"


def test_tree_edges_must_exist_in_graph():
    pair = build_ists(("1", "2", "3", "4"), "1")
    report = independence_report(pair, gen_cycle(5))  # wrong graph
    assert not report.vertex_disjoint


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_cycle_tree_pairs_always_independent(k, seed):
    rng = random.Random(seed)
    order = [str(v) for v in range(1, k + 1)]
    rng.shuffle(order)
    g = Graph()
    for v in order:
        g.add_vertex(v)
    for j, u in enumerate(order):
        g.link(g.add_vertex(u), g.add_vertex(order[(j + 1) % k]))
    root = rng.choice(order)
    pair = build_ists(tuple(order), root)
    report = independence_report(pair, g)
    assert report.vertex_disjoint and report.edge_disjoint
    assert is_spanning_tree(pair.parent1, root, g)
    assert is_spanning_tree(pair.parent2, root, g)
    assert len(tree_edges(pair.parent1)) == k - 1


def test_otis_bowtie_tree_pair():
    result = build_ham_cycle(3, 5)
    assert isinstance(result, BuildResult)
    graph = otis(gen_bowtie(3, 5))
    pair = build_ists(result.cycle, "1:1")
    report = independence_report(pair, graph)
    assert report.vertex_disjoint and report.edge_disjoint
    assert is_spanning_tree(pair.parent1, "1:1", graph)
    assert is_spanning_tree(pair.parent2, "1:1", graph)


def test_tree_pair_survives_base_chords():
    """Densifying the base cycles keeps an existing pair valid as long as
    the pair's edges survive, since trees only use cycle edges."""
    result = build_ham_cycle(3, 7)
    assert isinstance(result, BuildResult)
    pair = build_ists(result.cycle, "2:5")
    assert independence_report(pair, otis(gen_bowtie(3, 7))).vertex_disjoint
    base = gen_bowtie(3, 7)
    base.link(base.add_vertex("4"), base.add_vertex("6"))  # chord inside the right cycle; 5 keeps degree 2
    base.link(base.add_vertex("6"), base.add_vertex("8"))  # 7 keeps degree 2
    augmented = otis(base)
    report = independence_report(pair, augmented)
    assert report.vertex_disjoint and report.edge_disjoint
