import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from otisham.graph import Graph, GraphError, is_connected
from otisham.topology import (
    bowtie_pair,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
)

from conftest import random_connected_graph


def test_bowtie_small_shapes():
    g33 = gen_bowtie(3, 3)
    assert (g33.n_vertices, g33.n_edges) == (5, 6)
    assert g33.degree("3") == 4
    g44 = gen_bowtie(4, 4)
    assert (g44.n_vertices, g44.n_edges) == (7, 8)
    g46 = gen_bowtie(4, 6)
    assert (g46.n_vertices, g46.n_edges) == (9, 10)


def test_bowtie_rejects_short_cycles():
    with pytest.raises(ValueError):
        gen_bowtie(2, 5)
    with pytest.raises(ValueError):
        gen_bowtie(5, 1)


def test_bowtie_normalization():
    assert bowtie_pair(5, 3) == (3, 5)
    assert bowtie_pair(4, 5) == (5, 4)
    assert bowtie_pair(6, 4) == (4, 6)
    assert bowtie_pair(5, 7) == (5, 7)
    for m in range(1, 41):
        for n in range(1, 41):
            if min(m, n) < 3:
                with pytest.raises(GraphError) as info:
                    bowtie_pair(m, n)
                assert str(info.value) == f"cycle lengths must be >= 3, got ({m}, {n})"
                continue
            if m % 2 == n % 2:
                want = (min(m, n), max(m, n))  # same parity: shorter cycle left
            elif m % 2 == 1:
                want = (m, n)  # odd side left
            else:
                want = (n, m)
            got = bowtie_pair(m, n)
            assert type(got) is tuple and got == want, (m, n)


def test_bowtie_is_two_cycles_at_cut_vertex():
    g = gen_bowtie(5, 7)
    c, i = 5, 11
    assert g.degree(str(c)) == 4
    assert all(g.degree(str(v)) == 2 for v in range(1, i + 1) if v != c)
    assert is_connected(g)


def test_butterfly_counts_and_regularity():
    bf3 = gen_butterfly(3)
    assert (bf3.n_vertices, bf3.n_edges) == (24, 48)
    assert all(bf3.degree(v) == 4 for v in bf3.vertices())
    bf4 = gen_butterfly(4)
    assert (bf4.n_vertices, bf4.n_edges) == (64, 128)
    assert all(bf4.degree(v) == 4 for v in bf4.vertices())


def test_butterfly_neighbor_rule():
    bf3 = gen_butterfly(3)
    assert sorted(bf3.neighbors("0:000")) == ["1:000", "1:010", "2:000", "2:100"]


def test_butterfly_rejects_low_dimension():
    with pytest.raises(ValueError):
        gen_butterfly(2)


def test_otis_k2_is_path():
    g = otis(gen_path(2))
    assert (g.n_vertices, g.n_edges) == (4, 3)
    assert is_connected(g)
    # path 1:1 - 1:2 - 2:1 - 2:2
    assert g.has_edge("1:1", "1:2")
    assert g.has_edge("1:2", "2:1")
    assert g.has_edge("2:1", "2:2")


def test_otis_counts():
    g = otis(gen_cycle(3))
    assert (g.n_vertices, g.n_edges) == (9, 12)
    g44 = otis(gen_bowtie(4, 4))
    assert (g44.n_vertices, g44.n_edges) == (49, 77)


def test_bowtie_otis_degree_census():
    g = otis(gen_bowtie(4, 6))
    census = Counter(g.degree(v) for v in g.vertices())
    nb = 9  # base vertices
    assert census == {4: 1, 2: nb - 1, 5: nb - 1, 3: nb * nb - 1 - 2 * (nb - 1)}
    assert g.degree("4:4") == 4
    assert all(g.degree(f"{x}:{x}") == 2 for x in range(1, 10) if x != 4)
    assert all(g.degree(f"{x}:4") == 5 for x in range(1, 10) if x != 4)


@given(st.integers(min_value=0, max_value=500))
def test_otis_degree_law(seed):
    base = random_connected_graph(random.Random(seed), max_vertices=7)
    g = otis(base)
    for label in g.vertices():
        cluster, proc = divmod(g.index[label], base.n_vertices)  # <g,u> is g*N + u
        expected = base.degree(base.labels[proc]) + (1 if cluster != proc else 0)
        assert g.degree(label) == expected


def test_transpose_edges_form_perfect_matching():
    base = gen_bowtie(3, 4)
    g = otis(base)
    off_diag = [v for v in g.vertices() if len(set(v.split(":"))) == 2]
    matched = set()
    for label in off_diag:
        cluster, proc = label.split(":")
        partner = f"{proc}:{cluster}"
        assert g.has_edge(label, partner)
        matched.add(label)
        matched.add(partner)
    assert matched == set(off_diag)


def test_cluster_induced_subgraph_matches_base():
    base = gen_bowtie(3, 5)
    g = otis(base)
    for cluster in base.vertices():
        for u, v in base.edges():
            assert g.has_edge(f"{cluster}:{u}", f"{cluster}:{v}")
        members = [f"{cluster}:{u}" for u in base.vertices()]
        intra = sum(
            1
            for k, a in enumerate(members)
            for b in members[k + 1 :]
            if g.has_edge(a, b)
        )
        assert intra == base.n_edges


def test_otis_rejects_colliding_labels():
    base = Graph.from_edges([("a:b", "c"), ("c", "a"), ("a", "b:c")])
    with pytest.raises(GraphError):
        otis(base)  # <a:b, c> and <a, b:c> would share the label a:b:c


def test_fixture_generators():
    assert gen_cycle(4).n_edges == 4
    assert gen_complete(4).n_edges == 6
    p1 = gen_path(1)
    assert (p1.n_vertices, p1.n_edges) == (1, 0)
    with pytest.raises(ValueError):
        gen_cycle(2)
    with pytest.raises(ValueError):
        gen_path(0)


@pytest.mark.parametrize("make,args", [
    (bowtie_pair, (2, 5)),
    (gen_bowtie, (5, 1)),
    (gen_butterfly, (2,)),
    (gen_cycle, (2,)),
    (gen_path, (0,)),
    (gen_complete, (2,)),
], ids=["bowtie_pair", "gen_bowtie", "gen_butterfly", "gen_cycle", "gen_path", "gen_complete"])
def test_size_errors_are_graph_errors(make, args):
    # the CLI reports GraphError as bad input; ValueError callers see no change
    with pytest.raises(GraphError) as info:
        make(*args)
    assert isinstance(info.value, ValueError)
