import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from otisham import constructive
from otisham.constructive import (
    BuildResult,
    FailureReport,
    KeyEdgeError,
    ParamClass,
    build_ham_cycle,
    classify,
    key_edges,
)
from otisham.engine import decide
from otisham.graph import is_hamiltonian_cycle
from otisham.topology import bowtie_pair, gen_bowtie, otis, otis_bowtie_violation

from conftest import (
    CONTRADICTING_TABLES,
    FAULTY_TABLES,
    TABLE_CLASS_PAIRS,
    edge_set,
    sweep_parameter_pairs,
    use_completion,
    use_table,
)

DATA = Path(__file__).parent / "data"


def test_classify_examples():
    assert classify(3, 3) is ParamClass.SMALL_FIGURE
    assert classify(5, 7) is ParamClass.SMALL_FIGURE
    assert classify(7, 7) is ParamClass.ODD_ODD_EQUAL
    assert classify(3, 9) is ParamClass.ODD_ODD_3N
    assert classify(5, 9) is ParamClass.ODD_ODD_GENERAL
    assert classify(3, 8) is ParamClass.ODD_EVEN_3
    assert classify(7, 4) is ParamClass.ODD_EVEN_GENERAL
    assert classify(4, 6) is ParamClass.EVEN_EVEN
    # classification is normalization-invariant
    assert classify(9, 5) is classify(5, 9)
    assert classify(4, 7) is classify(7, 4)


@given(st.integers(min_value=3, max_value=41), st.integers(min_value=3, max_value=41))
def test_classify_is_total_and_consistent(m, n):
    cls = classify(m, n)
    assert isinstance(cls, ParamClass)
    m, n = bowtie_pair(m, n)
    if m % 2 == 0 and n % 2 == 0:
        assert cls is ParamClass.EVEN_EVEN
    elif n % 2 == 0:
        assert cls in (ParamClass.ODD_EVEN_3, ParamClass.ODD_EVEN_GENERAL)
    else:
        assert cls in (
            ParamClass.SMALL_FIGURE,
            ParamClass.ODD_ODD_3N,
            ParamClass.ODD_ODD_EQUAL,
            ParamClass.ODD_ODD_GENERAL,
        )


def test_key_edges_reject_unsupported_classes():
    assert key_edges(3, 3) == []
    with pytest.raises(ValueError):
        key_edges(4, 6)


def test_key_edges_match_golden_7_7():
    golden = json.loads((DATA / "key_edges_7_7.json").read_text())
    current = [
        {"cluster": ke.cluster, "edge": [ke.a, ke.b], "tag": ke.tag}
        for ke in key_edges(7, 7)
    ]
    assert current == golden


def test_key_edges_equal_class_cluster_one():
    by_cluster = {}
    for ke in key_edges(7, 7):
        by_cluster.setdefault(ke.cluster, set()).add(tuple(sorted((ke.a, ke.b))))
    c, i = 7, 13
    assert {(2, 3), (4, 5), (6, 7)} <= by_cluster[1]
    assert {(9, 10), (11, 12)} <= by_cluster[1]
    assert {(c, i), (c, c + 1)} <= by_cluster[1]


def test_key_edges_odd_even_3_cluster_i():
    c, i = 3, 10  # BF(3, 8)
    rows = {(ke.a, ke.b) for ke in key_edges(3, 8) if ke.cluster == i}
    assert rows == {(3, 1), (3, 2), (4, 5), (6, 7), (8, 9)}


def test_key_edges_general_odd_cluster_c():
    c = 5
    rows = {tuple(sorted((ke.a, ke.b))) for ke in key_edges(5, 9) if ke.cluster == c}
    assert rows == {(1, 5), (5, 6)}


def test_key_edges_validated_and_deduplicated():
    for m, n in [(5, 5), (3, 7), (3, 6), (5, 4), (5, 9)]:
        base = gen_bowtie(m, n)
        seen = set()
        for ke in key_edges(m, n):
            assert base.has_edge(str(ke.a), str(ke.b)), (m, n, ke)
            key = (ke.cluster, min(ke.a, ke.b), max(ke.a, ke.b))
            assert key not in seen
            seen.add(key)


def test_build_small_figure_cases():
    r33 = build_ham_cycle(3, 3)
    assert isinstance(r33, BuildResult)
    assert len(r33.cycle) == 25
    r57 = build_ham_cycle(5, 7)
    assert isinstance(r57, BuildResult)
    assert len(r57.cycle) == 121


def test_build_equal_class():
    r = build_ham_cycle(7, 7)
    assert isinstance(r, BuildResult)
    assert len(r.cycle) == 169
    assert is_hamiltonian_cycle(otis(gen_bowtie(7, 7)), r.cycle)


def test_build_even_even_unsupported():
    r = build_ham_cycle(4, 4)
    assert isinstance(r, FailureReport)
    assert r.kind == "unsupported-class"
    r = build_ham_cycle(6, 8)
    assert isinstance(r, FailureReport)
    assert r.kind == "unsupported-class"


def test_every_sweep_build_is_verified(sweep_builds):
    for (m, n), result in sweep_builds.items():
        graph = otis(gen_bowtie(m, n))
        assert is_hamiltonian_cycle(graph, result.cycle), (m, n)
        assert len(result.cycle) == graph.n_vertices


def test_construction_cost_examples():
    s35 = build_ham_cycle(3, 5).steps
    s39 = build_ham_cycle(3, 9).steps
    v35 = 7 * 7
    v39 = 11 * 11
    assert s39 / s35 <= 3 * (v39 / v35)
    # the cost is a table build's: (3,3) has an empty table, (4,4) no build
    assert key_edges(3, 3) == []
    assert isinstance(build_ham_cycle(4, 4), FailureReport)


@pytest.mark.parametrize("m,n,searches", [(3, 4, 0), (7, 7, 0), (3, 3, 1)])
def test_every_built_cycle_is_checked_exactly_once(m, n, searches, monkeypatch):
    # (3,4) and (7,7) walk their tables, and the arithmetic check reads the
    # walk; the small figure (3,3) searches from an empty table, and the
    # engine checks its cycle on the graph
    import otisham.constructive
    import otisham.engine

    checks, decides = [], []

    def counted(check):
        def wrapper(*args):
            checks.append(args[-1])
            return check(*args)

        return wrapper

    def counted_decide(*args, **kwargs):
        decides.append(args)
        return decide(*args, **kwargs)

    monkeypatch.setattr(otisham.constructive, "decide", counted_decide)
    monkeypatch.setattr(otisham.constructive, "otis_bowtie_violation", counted(otis_bowtie_violation))
    for module in (otisham.constructive, otisham.engine):
        monkeypatch.setattr(module, "is_hamiltonian_cycle", counted(is_hamiltonian_cycle))
    assert isinstance(build_ham_cycle(m, n), BuildResult)
    assert (len(checks), len(decides)) == (1, searches)
    # a check that fails stops the build: a table fault for a walk, an
    # internal error for the decider
    monkeypatch.setattr(otisham.constructive, "otis_bowtie_violation", lambda m, n, order: "length-mismatch")
    for module in (otisham.constructive, otisham.engine):
        monkeypatch.setattr(module, "is_hamiltonian_cycle", lambda graph, order: False)
    with pytest.raises(AssertionError if searches else KeyEdgeError):
        build_ham_cycle(m, n)


@pytest.mark.parametrize("case", sorted(FAULTY_TABLES))
def test_faulty_table_raises_key_edge_error(case, monkeypatch):
    m, n, rows, message = FAULTY_TABLES[case]
    use_table(monkeypatch, m, n, rows)
    with pytest.raises(KeyEdgeError) as exc:
        build_ham_cycle(m, n)
    assert str(exc.value) == message


@pytest.mark.parametrize("row,message", [
    ((15, 1, 2), "cluster 15: probe: cluster 15 out of range"),
    ((1, 1, 4), "cluster 1: probe: (1,4) is not a base edge"),
])
def test_faulty_completion_row_raises_key_edge_error(row, message, monkeypatch):
    # completion rows are validated as key rows are, and fail the same way
    use_completion(monkeypatch, 7, 8, lambda r: r.add(*row, "probe"))
    with pytest.raises(KeyEdgeError) as exc:
        build_ham_cycle(7, 8)
    assert str(exc.value) == message


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS)
def test_every_single_row_change_is_a_table_fault(m, n, monkeypatch):
    # the walk takes each vertex's two cycle edges from the rows, so any row
    # dropped from the completion table, or any cycle edge added to it,
    # leaves some vertex with a wrong count or an edge its neighbour lacks
    complete = constructive._COMPLETIONS[classify(m, n)]
    cycle = build_ham_cycle(m, n).cycle
    used = []
    for u, v in sorted(edge_set(cycle)):
        (g, a), (h, b) = (map(int, w.split(":")) for w in (u, v))
        if g == h:
            used.append((g, a, b))
    probe = constructive._Rows(m, n)
    complete(probe)
    changes = [lambda r, k=k: r.out.pop(k) for k in range(len(probe.out))]
    changes += [lambda r, e=e: r.add(*e, "probe") for e in used]
    assert probe.out or classify(m, n) is ParamClass.ODD_EVEN_3  # the one class with no completion rows
    for change in changes:
        use_completion(monkeypatch, m, n, lambda r: (complete(r), change(r)))
        with pytest.raises(KeyEdgeError):
            build_ham_cycle(m, n)


@pytest.mark.parametrize("case", sorted(CONTRADICTING_TABLES))
def test_contradicting_table_reports_a_contradiction(case, monkeypatch):
    # seeding, the fixpoint (underfill and subcycle) and the residual search
    # each stop the build with their own detail
    m, n, rows, detail = CONTRADICTING_TABLES[case]
    use_table(monkeypatch, m, n, rows)
    assert build_ham_cycle(m, n) == FailureReport("contradiction", classify(m, n), detail)


def test_construction_cost_is_deterministic():
    assert build_ham_cycle(5, 9).steps == build_ham_cycle(5, 9).steps


def test_second_edge_disjoint_cycle_impossible_small():
    """Deleting a found cycle's edges leaves a non-Hamiltonian graph."""
    from otisham.graph import Graph

    for m, n in [(3, 4), (3, 5)]:
        result = build_ham_cycle(m, n)
        assert isinstance(result, BuildResult)
        used = edge_set(result.cycle)
        graph = otis(gen_bowtie(m, n))
        stripped = Graph()
        for v in graph.vertices():
            stripped.add_vertex(v)
        for u, v in graph.edges():
            if tuple(sorted((u, v))) not in used:
                stripped.link(stripped.add_vertex(u), stripped.add_vertex(v))
        assert not decide(stripped).is_hamiltonian
