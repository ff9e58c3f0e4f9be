import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from otisham import cli, constructive
from otisham.constructive import (
    BuildResult,
    KeyEdgeError,
    ParamClass,
    build_ham_cycle,
    classify,
    key_edges,
)
from otisham.engine import HAMILTONIAN, decide
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
from build_reference import reference_walk
from graph_reference import has_edge, segments_of
from test_bench_spans import load_spans

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
            assert has_edge(base, str(ke.a), str(ke.b)), (m, n, ke)
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
    for m, n in [(4, 4), (6, 8)]:
        with pytest.raises(ValueError, match="no key-edge table for class even-even"):
            build_ham_cycle(m, n)


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
    # the cost is a table build's: (3,3) has an empty key table, (4,4) no build
    assert key_edges(3, 3) == []
    with pytest.raises(ValueError, match="no key-edge table for class even-even"):
        build_ham_cycle(4, 4)


@pytest.mark.parametrize("m,n", [(3, 4), (7, 7), (3, 3)])
def test_every_built_cycle_is_checked_exactly_once(m, n, monkeypatch):
    # every pair, the small figure (3,3) too, walks its tables, and the
    # arithmetic check reads the walk; the graph check is never reached
    import otisham.constructive
    import otisham.engine

    checks = []

    def counted(check):
        def wrapper(*args):
            checks.append(args[-1])
            return check(*args)

        return wrapper

    monkeypatch.setattr(otisham.constructive, "otis_bowtie_violation", counted(otis_bowtie_violation))
    for module in (otisham.constructive, otisham.engine):
        monkeypatch.setattr(module, "is_hamiltonian_cycle", counted(is_hamiltonian_cycle))
    assert isinstance(build_ham_cycle(m, n), BuildResult)
    assert len(checks) == 1
    # a check that fails stops the build with a table fault
    monkeypatch.setattr(otisham.constructive, "otis_bowtie_violation", lambda m, n, order: "length-mismatch")
    with pytest.raises(KeyEdgeError):
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


def test_a_faulty_key_row_is_reported_before_a_faulty_completion_row(monkeypatch):
    # the key table is written and checked in full before any completion row
    table = constructive._TABLES[classify(7, 8)]
    use_table(monkeypatch, 7, 8, lambda r: (table(r), r.add(1, 1, 4, "probe")))
    use_completion(monkeypatch, 7, 8, lambda r: r.add(15, 1, 2, "probe"))
    with pytest.raises(KeyEdgeError) as exc:
        build_ham_cycle(7, 8)
    assert str(exc.value) == "cluster 1: probe: (1,4) is not a base edge"


def test_a_repeated_key_edge_keeps_its_first_kind(monkeypatch, capsys):
    use_table(monkeypatch, 7, 7, lambda r: (r.add(1, 1, 2, "first"), r.add(1, 2, 1, "second")))
    assert key_edges(7, 7) == [(1, 1, 2, "first")]
    assert cli.main(["ham-build", "--m", "7", "--n", "7", "--emit-key-edges", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["key_edges"]
    assert rows == [{"cluster": 1, "edge": [1, 2], "tag": "cluster 1: first"}]


def used_rows(m: int, n: int) -> list[tuple[int, int, int]]:
    """The intracluster edges of the built cycle of (m, n), as (cluster, a, b)."""
    used = []
    for u, v in sorted(edge_set(build_ham_cycle(m, n).cycle)):
        (g, a), (h, b) = (map(int, w.split(":")) for w in (u, v))
        if g == h:
            used.append((g, a, b))
    return used


def reference_segments(m: int, n: int, cls: ParamClass) -> list[tuple[int, int]]:
    """The vertex walk's order as ``_walk``'s segments, or its fault."""
    return segments_of(reference_walk(m, n, cls), m + n - 1)


@pytest.mark.parametrize("m,n", TABLE_CLASS_PAIRS)
def test_every_single_row_change_is_a_table_fault(m, n, monkeypatch):
    # the walk takes each vertex's two cycle edges from the rows, so any row
    # dropped from the completion table, or any cycle edge added to it,
    # leaves some vertex with a wrong count or an edge its neighbour lacks
    complete = constructive._COMPLETIONS[classify(m, n)]
    used = used_rows(m, n)
    probe = constructive._Rows(m, n)
    complete(probe)
    changes = [lambda r, k=k: r.out.pop(k) for k in range(len(probe.out))]
    changes += [lambda r, e=e: r.add(*e, "probe") for e in used]
    assert probe.out or classify(m, n) is ParamClass.ODD_EVEN_3  # the one class with no completion rows
    for change in changes:
        use_completion(monkeypatch, m, n, lambda r: (complete(r), change(r)))
        # the run walk faults where the vertex walk does, with its message
        with pytest.MonkeyPatch.context() as vertex_walk:
            vertex_walk.setattr(constructive, "_walk", reference_segments)
            with pytest.raises(KeyEdgeError) as want:
                build_ham_cycle(m, n)
        with pytest.raises(KeyEdgeError) as got:
            build_ham_cycle(m, n)
        assert str(got.value) == str(want.value)


# large pairs of all five table classes; their cycles have one step that
# is not +1 or -1 per 3.8 vertices at (81,81) up to one per 54.3 at (3,160)
RUN_WALK_PAIRS = [(81, 80), (81, 81), (161, 160), (3, 160), (3, 161), (161, 163)]


def test_run_walk_matches_the_vertex_walk():
    # the walk's segments are the vertex walk's order split at every step
    # that is not +1 or -1 in one direction inside one cluster
    pairs = sweep_parameter_pairs(61) + RUN_WALK_PAIRS
    assert len(pairs) == 637
    differ = [(m, n) for m, n in pairs
              if constructive._walk(m, n, classify(m, n)) != reference_segments(m, n, classify(m, n))]
    assert differ == []


@pytest.mark.parametrize("m,n,count", [
    (501, 500, 5_980),   # odd-even-general, N = 1000
    (501, 503, 6_991),   # odd-odd-general, N = 1003
    (3, 998, 2_997),     # odd-even-3, N = 1000
    (3, 999, 8_961),     # odd-odd-3n, N = 1001
    (31, 30, 340),       # the two largest benchmark builds, whose segments
    (21, 21, 485),       # the test above equates with the vertex walk's runs
])
def test_walk_segment_counts(m, n, count):
    # outside odd-odd-equal a cycle of V = N^2 vertices, N = m+n-1, is 3N
    # to 9N segments
    assert len(constructive._walk(m, n, classify(m, n))) == count


def walk_outcomes(m: int, n: int, trials: int) -> list:
    """The run walk's segments or fault message under random changes to the
    completion rows of (m, n), each checked against the vertex walk's: up
    to three rows dropped and one to three cycle edges added at once."""
    cls = classify(m, n)
    complete = constructive._COMPLETIONS[cls]
    used = used_rows(m, n)
    probe = constructive._Rows(m, n)
    complete(probe)

    def outcome(walk):
        try:
            return walk(m, n, cls)
        except KeyEdgeError as exc:
            return str(exc)

    rng = random.Random(m * 100 + n)
    outcomes = []
    for _ in range(trials):
        drop = set(rng.sample(range(len(probe.out)), min(len(probe.out), rng.randint(0, 3))))
        add = rng.sample(used, rng.randint(1, 3))

        def changed(r):
            complete(r)
            r.out[:] = [ke for k, ke in enumerate(r.out) if k not in drop]
            for row in add:
                r.add(*row, "probe")

        with pytest.MonkeyPatch.context() as patch:
            use_completion(patch, m, n, changed)
            got = outcome(constructive._walk)
            assert got == outcome(reference_segments), (m, n, drop, add)
        outcomes.append(got)
    return outcomes


def test_run_walk_faults_as_the_vertex_walk():
    outcomes = [got for m, n in TABLE_CLASS_PAIRS + [(3, 3), (5, 7)] for got in walk_outcomes(m, n, 150)]
    # some change leaves a subcycle through 1:1, which the walk runs round
    # until it has taken V vertices
    assert any(str(got).endswith("does not close the walk at 1:1") for got in outcomes)


@pytest.mark.parametrize("case", sorted(CONTRADICTING_TABLES))
def test_contradicting_table_reports_a_contradiction(case, monkeypatch):
    # the walk reports the contradiction as a table fault at its vertex
    m, n, rows, message = CONTRADICTING_TABLES[case]
    use_table(monkeypatch, m, n, rows)
    with pytest.raises(KeyEdgeError) as exc:
        build_ham_cycle(m, n)
    assert str(exc.value) == message


def test_constructive_calls_nothing_from_engine_graph_or_otis():
    # every build is a walk; the names below are imported only for the
    # traced benchmark run, which wraps them on this module, and go with it
    tree = ast.parse(Path(constructive.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if node.module in ("engine", "graph") or (node.module, alias.name) == ("topology", "otis")
    }
    used = {
        (fn.name, node.id)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in imported
    }
    assert used == set()
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    wrapped = {attr for owner, attr, _, _ in load_spans().WRAPS if owner == "constructive"} - defined
    assert imported == wrapped


def test_every_module_uses_what_it_imports():
    # the one exception is the names constructive imports for the traced
    # benchmark run alone; it ends when bench/spans.py stops wrapping them
    tree = ast.parse(Path(constructive.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    wrapped = {attr for owner, attr, _, _ in load_spans().WRAPS if owner == "constructive"} - defined
    unused = {}
    for path in sorted(Path(constructive.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        unused[path.stem] = imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert len(unused) > 2
    assert unused == {stem: wrapped if stem == "constructive" else set() for stem in unused}


def _defined_names(statements):
    """(name, statement) for each name that ``statements`` bind at their own
    level: a ``def``, a ``class`` or an assignment's target names."""
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def test_every_name_the_package_defines_is_read_by_the_program():
    # the program is src/otisham and bench/: a name only tests read is no part
    # of it.  Reads match by name: a loaded name or attribute, an imported
    # name or a keyword argument.  A read inside the name's own definition
    # does not count; a class's dunder members are called by Python itself
    src = Path(constructive.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) + sorted((src.parents[1] / "bench").glob("*.py"))}
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append((path, node.lineno))
            elif isinstance(node, ast.keyword) and node.arg:
                reads.setdefault(node.arg, []).append((path, node.lineno))
    unread = []
    for path, tree in trees.items():
        if path.parent != src:
            continue
        defined = list(_defined_names(tree.body))
        defined += [
            (f"{cls.name}.{name}", stmt)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name, stmt in _defined_names(cls.body)
            if not (name.startswith("__") and name.endswith("__"))
        ]
        for qualname, stmt in defined:
            inside = range(stmt.lineno, stmt.end_lineno + 1)
            if all(where == path and line in inside for where, line in reads.get(qualname.rpartition(".")[2], [])):
                unread.append(f"{path.stem}.{qualname}")
    assert len(reads) > 100
    assert unread == []


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
        for v in graph.labels:
            stripped.add_vertex(v)
        for u, v in graph.edges():
            if tuple(sorted((u, v))) not in used:
                stripped.link(stripped.add_vertex(u), stripped.add_vertex(v))
        assert decide(stripped).status != HAMILTONIAN
