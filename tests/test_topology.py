import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from otisham import constructive, topology
from otisham.cli import sweep_pairs
from otisham.constructive import build_ham_cycle, classify
from otisham.graph import Graph, GraphError, cycle_violation, graph_hash, is_connected
from otisham.topology import (
    MAX_EDGES,
    bowtie_pair,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
    otis_bowtie_hash,
    otis_bowtie_violation,
)

import graph_reference
from conftest import TABLE_CLASS_PAIRS, peak_bytes, random_connected_graph
from graph_reference import degree, expand, has_edge, neighbors, segments_of


def test_bowtie_small_shapes():
    g33 = gen_bowtie(3, 3)
    assert (g33.n_vertices, g33.n_edges) == (5, 6)
    assert degree(g33, "3") == 4
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
    assert degree(g, str(c)) == 4
    assert all(degree(g, str(v)) == 2 for v in range(1, i + 1) if v != c)
    assert is_connected(g)


def test_butterfly_counts_and_regularity():
    bf3 = gen_butterfly(3)
    assert (bf3.n_vertices, bf3.n_edges) == (24, 48)
    assert all(degree(bf3, v) == 4 for v in bf3.labels)
    bf4 = gen_butterfly(4)
    assert (bf4.n_vertices, bf4.n_edges) == (64, 128)
    assert all(degree(bf4, v) == 4 for v in bf4.labels)


def test_butterfly_neighbor_rule():
    bf3 = gen_butterfly(3)
    assert sorted(neighbors(bf3, "0:000")) == ["1:000", "1:010", "2:000", "2:100"]


def test_butterfly_rejects_low_dimension():
    with pytest.raises(ValueError):
        gen_butterfly(2)


def test_otis_k2_is_path():
    g = otis(gen_path(2))
    assert (g.n_vertices, g.n_edges) == (4, 3)
    assert is_connected(g)
    # path 1:1 - 1:2 - 2:1 - 2:2
    assert has_edge(g, "1:1", "1:2")
    assert has_edge(g, "1:2", "2:1")
    assert has_edge(g, "2:1", "2:2")


def test_otis_counts():
    g = otis(gen_cycle(3))
    assert (g.n_vertices, g.n_edges) == (9, 12)
    g44 = otis(gen_bowtie(4, 4))
    assert (g44.n_vertices, g44.n_edges) == (49, 77)


def test_bowtie_otis_degree_census():
    g = otis(gen_bowtie(4, 6))
    census = Counter(degree(g, v) for v in g.labels)
    nb = 9  # base vertices
    assert census == {4: 1, 2: nb - 1, 5: nb - 1, 3: nb * nb - 1 - 2 * (nb - 1)}
    assert degree(g, "4:4") == 4
    assert all(degree(g, f"{x}:{x}") == 2 for x in range(1, 10) if x != 4)
    assert all(degree(g, f"{x}:4") == 5 for x in range(1, 10) if x != 4)


@given(st.integers(min_value=0, max_value=500))
def test_otis_degree_law(seed):
    base = random_connected_graph(random.Random(seed), max_vertices=7)
    g = otis(base)
    for label in g.labels:
        cluster, proc = divmod(g.index[label], base.n_vertices)  # <g,u> is g*N + u
        expected = degree(base, base.labels[proc]) + (1 if cluster != proc else 0)
        assert degree(g, label) == expected


def test_transpose_edges_form_perfect_matching():
    base = gen_bowtie(3, 4)
    g = otis(base)
    off_diag = [v for v in g.labels if len(set(v.split(":"))) == 2]
    matched = set()
    for label in off_diag:
        cluster, proc = label.split(":")
        partner = f"{proc}:{cluster}"
        assert has_edge(g, label, partner)
        matched.add(label)
        matched.add(partner)
    assert matched == set(off_diag)


def test_cluster_induced_subgraph_matches_base():
    base = gen_bowtie(3, 5)
    g = otis(base)
    for cluster in base.labels:
        for u, v in base.edges():
            assert has_edge(g, f"{cluster}:{u}", f"{cluster}:{v}")
        members = [f"{cluster}:{u}" for u in base.labels]
        intra = sum(
            1
            for k, a in enumerate(members)
            for b in members[k + 1 :]
            if has_edge(g, a, b)
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
    # one past the size limit, refused before anything is built
    (bowtie_pair, (3, 2363)),
    (gen_bowtie, (2363, 3)),
    (gen_butterfly, (18,)),
    (gen_cycle, (MAX_EDGES + 1,)),
    (gen_path, (MAX_EDGES + 2,)),
    (gen_complete, (4097,)),
], ids=["bowtie_pair", "gen_bowtie", "gen_butterfly", "gen_cycle", "gen_path", "gen_complete",
        "bowtie_pair over", "gen_bowtie over", "gen_butterfly over", "gen_cycle over", "gen_path over",
        "gen_complete over"])
def test_size_errors_are_graph_errors(make, args):
    # the CLI reports GraphError as bad input; ValueError callers see no change
    with pytest.raises(GraphError) as info:
        make(*args)
    assert isinstance(info.value, ValueError)


def test_size_limit_admits_the_largest_network_in_use():
    # OTIS(BF(1001, 1000)) has 6,001,000 edges; OTIS(BF(3, 2362)), with
    # 8,383,926, is the largest within the limit
    assert bowtie_pair(1001, 1000) == (1001, 1000)
    assert bowtie_pair(2362, 3) == (3, 2362)


def test_otis_refuses_an_oversize_network_before_building_it():
    # 2,400 clusters of 2,399 path edges and 2,878,800 transpose edges:
    # 8,636,400 in all, refused with only the base in memory
    base = gen_path(2400)

    def refuse():
        with pytest.raises(GraphError, match="^OTIS of a 2400-vertex base is over the size limit of 8388608 edges$"):
            otis(base)

    _, peak = peak_bytes(refuse)
    assert peak < 1 << 20


def test_otis_size_limit_counts_cluster_and_transpose_edges(monkeypatch):
    # OTIS(C_10): 10 clusters of 10 edges and 45 transpose edges
    monkeypatch.setattr(topology, "MAX_EDGES", 145)
    assert otis(gen_cycle(10)).n_edges == 145
    monkeypatch.setattr(topology, "MAX_EDGES", 144)
    with pytest.raises(GraphError, match="^OTIS of a 10-vertex base is over the size limit of 144 edges$"):
        otis(gen_cycle(10))


def test_graph_free_hash_matches_graph_hash():
    # every bowtie pair with m + n - 1 <= 41, even-even ones too, and two
    # large ones; the pairs go in as given, in either order
    pairs = sweep_pairs(41) + [(80, 81), (161, 160)]
    differ = [(m, n) for m, n in pairs if otis_bowtie_hash(m, n) != graph_hash(otis(gen_bowtie(m, n)))]
    assert differ == []
    assert otis_bowtie_hash(4, 5) == otis_bowtie_hash(5, 4)


def _damaged(order: list, graph: Graph) -> dict[str, list]:
    """Each kind of damage done to a Hamiltonian cycle of ``graph`` given as
    vertex indices.  For a bad closing step, reverse the path's tail after
    a neighbour of its last vertex: every step stays an edge but the last."""
    def adjacent(a, b):
        return (min(a, b), max(a, b)) in graph.edge_id

    far = next(k for k in range(2, len(order)) if not adjacent(order[0], order[k]))
    turn = next(k for k in range(1, len(order) - 2)
                if adjacent(order[k], order[-1]) and not adjacent(order[k + 1], order[0]))
    return {
        "swapped pair": [order[0], order[2], order[1], *order[3:]],
        "repeated vertex": [order[0], order[0], *order[2:]],
        "non-edge step": [order[0], *order[far:], *order[1:far]],
        "bad closing step": [*order[:turn + 1], *order[:turn:-1]],
        "too short": order[:-1],
        "too long": [*order, order[0]],
        "unknown vertex": [*order[:-1], graph.n_vertices],
    }


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS + [(3, 3), (5, 7)])
def test_arithmetic_check_agrees_with_cycle_violation(m, n):
    cycle = build_ham_cycle(m, n).cycle
    graph = otis(gen_bowtie(m, n))
    size = m + n - 1
    order = [graph.index[v] for v in cycle]
    assert [(int(v.split(":")[0]) - 1) * size + int(v.split(":")[1]) - 1 for v in cycle] == order
    assert otis_bowtie_violation(m, n, segments_of(order, size)) is None is cycle_violation(graph, cycle)
    labels = graph.labels + ["0:0"]  # index size*size stands for a label the graph lacks
    damaged = _damaged(order, graph)
    closing = damaged["bad closing step"]
    # the damage reaches only the closing step
    assert cycle_violation(graph, [labels[k] for k in closing]) == (
        f"non-adjacent-step:{labels[closing[-1]]}-{labels[closing[0]]}")
    for kind, bad in damaged.items():
        want = cycle_violation(graph, [labels[k] for k in bad])
        assert want is not None, kind
        assert otis_bowtie_violation(m, n, segments_of(bad, size)) == want, kind


def _fuzzed(order: list, size: int, rng: random.Random) -> list[list]:
    """Random damage of each kind done to a cycle ``order`` of vertex
    indices over ``size`` base vertices, a repeat and an unknown index at
    once, rotations and reversals of it that leave it a cycle, and orders
    with unit steps from cluster to cluster, g*N-1 to g*N, the closing
    step among them."""
    total = len(order)
    i, j = sorted(rng.sample(range(total), 2))
    k = rng.randrange(total)
    swapped = order[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    neighbours = order[:]
    neighbours[k - 1], neighbours[k] = neighbours[k], neighbours[k - 1]
    out = [*order]
    out[k] = rng.choice([-1, total, total + rng.randrange(total), -rng.randrange(2, total)])
    repeated = [*order]
    src = i if i != k else j
    repeated[k] = order[src]
    both = [*repeated]  # a repeat and an unknown index: the repeat is named
    both[next(p for p in range(total) if p not in (k, src))] = out[k]
    # g*N taken out and put back just after g*N-1
    g = rng.randrange(1, size)
    crossing = [v for v in order if v != g * size]
    crossing.insert(crossing.index(g * size - 1) + 1, g * size)
    at = crossing.index(g * size)
    return [
        swapped,
        neighbours,
        out,
        repeated,
        both,
        order[:k],
        order[:k] + order[k + 1:] + [order[k]],
        order[k:] + order[:k],
        order[::-1],
        order[:i] + order[i:j][::-1] + order[j:],
        crossing,
        crossing[at:] + crossing[:at],  # the crossing step closes the order
        crossing[::-1],
        list(range(total)),
        list(range(total))[k:] + list(range(k)),
        list(range(total - 1, -1, -1)),
    ]


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS + [(3, 3), (5, 7)])
def test_arithmetic_check_agrees_with_the_element_scan(m, n):
    size = m + n - 1
    order = [(int(g) - 1) * size + int(u) - 1 for g, u in (v.split(":") for v in build_ham_cycle(m, n).cycle)]
    rng = random.Random(size)
    reasons = Counter()
    for _ in range(60):
        for bad in _fuzzed(order, size, rng):
            want = graph_reference.otis_bowtie_violation(m, n, bad)
            assert otis_bowtie_violation(m, n, segments_of(bad, size)) == want, (bad, want)
            reasons[want.split(":")[0] if want else want] += 1
    assert set(reasons) == {None, "length-mismatch", "duplicate-vertex", "unknown-vertex", "non-adjacent-step"}


def _damaged_segments(segments: list, size: int, rng: random.Random) -> dict[str, list]:
    """Random damage of each kind done to a cycle given as ``segments`` over
    ``size`` base vertices, keyed by kind."""
    count = len(segments)
    k = rng.randrange(count)
    first, last = segments[k]
    moved = segments[:]
    moved[k] = (first + rng.choice((-1, 1)), last) if rng.randrange(2) else (first, last + rng.choice((-1, 1)))
    swapped = segments[:]
    swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]  # k = 0 swaps the closing pair
    shifted = segments[:]
    d = rng.choice((-1, 1))
    shifted[k] = (first + d, last + d)  # same length: a repeat, or an index out of range
    flipped = segments[:]
    flipped[k] = (last, first)
    repeated = segments[:]
    repeated.insert(rng.randrange(count + 1), segments[k])
    # g*N taken out and put just after g*N-1, or g*N-1 just after g*N, so
    # that one segment runs from cluster g into cluster g+1 or back
    g = rng.randrange(1, size)
    a, b = rng.choice([(g * size - 1, g * size), (g * size, g * size - 1)])
    order = expand(segments)
    order.remove(b)
    order.insert(order.index(a) + 1, b)
    crossing = segments_of(order, size * size)  # runs split by direction alone
    assert any(low // size != high // size for low, high in crossing)
    return {
        "end moved": moved,
        "neighbours swapped": swapped,
        "segment shifted": shifted,
        "segment reversed": flipped,
        "segment dropped": segments[:k] + segments[k + 1:],
        "segment repeated": repeated,
        "cluster crossed": crossing,
        "rotated": segments[k:] + segments[:k],
        "reversed": [(end, start) for start, end in reversed(segments)],
    }


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS + [(3, 3), (5, 7)])
def test_segment_check_agrees_with_the_element_scan_on_damaged_segments(m, n):
    # the reference checks the order the damaged segments stand for; a
    # rotation or the reversed list is the same cycle, and every other
    # damage that changes the order is rejected
    size = m + n - 1
    segments = constructive._walk(m, n, classify(m, n))
    cycle = expand(segments)
    assert otis_bowtie_violation(m, n, segments) is None
    rng = random.Random(size)
    reasons = Counter()
    for _ in range(60):
        for kind, bad in _damaged_segments(segments, size, rng).items():
            order = expand(bad)
            want = graph_reference.otis_bowtie_violation(m, n, order)
            assert otis_bowtie_violation(m, n, bad) == want, (kind, bad, want)
            if kind in ("rotated", "reversed"):
                assert want is None, kind
            elif order != cycle:
                assert want is not None, (kind, bad)
            reasons[want.split(":")[0] if want else want] += 1
    assert {None, "length-mismatch", "duplicate-vertex", "non-adjacent-step"} <= set(reasons)
