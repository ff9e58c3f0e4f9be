"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured numbers."""

import contextlib
import io
import math
import random
import statistics
import time

import pytest

from otisham.cli import main, reproduce_report
from otisham.constructive import (
    BuildResult,
    FailureReport,
    ParamClass,
    build_ham_cycle,
    classify,
)
from otisham.engine import Contradiction, SHORT_SUBCYCLE, VERTEX_UNDERFILLED, decide
from otisham.graph import Graph, is_hamiltonian_cycle
from otisham.topology import (
    bowtie_pair,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
)
from otisham.trees import build_ists, independence_report

from conftest import (
    MAIN_LINE,
    diameter,
    edge_set,
    random_connected_graph,
    random_graph,
    staged_propagation,
    sweep_parameter_pairs,
    sweep_roots,
)
from ham_oracle import oracle_is_hamiltonian
from ist_reference import is_spanning_tree


def report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# -- criterion 1: published-count reproduction -------------------------------


def test_criterion_1_reproduction_counts():
    t0 = time.perf_counter()
    rep, mismatches = reproduce_report()
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert rep["vertices"] == 49
    assert rep["edges"] == 77
    assert rep["edge_budget"] == 28
    assert rep["family_bound"] == 20
    assert rep["independent_bound"] == 9
    assert rep["total_bound"] == 29
    assert rep["census"] == {"2": 6, "3": 36, "4": 1, "5": 6}
    assert rep["degree5"] == ["1:4", "2:4", "3:4", "5:4", "6:4", "7:4"]
    assert elapsed < 1.0
    report(
        "criterion 1 (count reproduction)",
        f"49 vertices / 77 edges / budget 28 / bound 20+9=29, census ok, {elapsed*1e3:.0f} ms",
    )


# -- criterion 2: complete refutation + published case analysis -------------


@pytest.fixture(scope="module")
def otis44():
    return otis(gen_bowtie(4, 4))


@pytest.fixture(scope="module")
def otis46():
    return otis(gen_bowtie(4, 6))


# the listed forced edges of the first branch, ending at the stranded vertex
CASE_1_FINAL = [
    ("6:2", "6:1"),
    ("6:3", "6:4"), ("3:6", "6:3"), ("3:7", "7:3"), ("3:7", "3:8"),
    ("8:3", "8:2"), ("8:3", "8:4"), ("8:1", "1:8"), ("1:7", "7:1"),
    ("1:7", "1:6"), ("6:1", "6:4"), ("6:5", "6:6"), ("6:8", "6:9"),
    ("5:6", "6:5"), ("6:9", "9:6"), ("4:6", "4:7"), ("9:7", "9:8"),
    ("7:9", "9:7"), ("8:4", "8:9"), ("8:5", "8:6"), ("5:8", "8:5"),
]

CASE_2_PREFIX = MAIN_LINE + [
    ((("2:6", "2:7"),), ()),
    ((("6:1", "1:6"),), (("6:3", "3:6"),)),  # exactly one of 6:1 / 6:3 keeps its transpose
]

CASE_22_FINAL = [
    ("5:7", "5:6"), ("5:7", "7:5"),
    ("5:8", "8:5"), ("6:4", "6:5"), ("6:5", "6:6"), ("4:6", "4:7"),
    ("6:9", "6:8"), ("6:9", "9:6"), ("9:7", "9:8"), ("7:9", "9:7"),
    ("8:4", "8:9"), ("8:2", "8:3"), ("8:5", "8:6"), ("4:7", "4:8"),
    ("8:6", "8:7"), ("7:9", "7:8"), ("7:4", "7:1"), ("7:4", "7:3"),
]


def test_criterion_2_complete_refutation(otis44, otis46):
    t0 = time.perf_counter()
    v44 = decide(otis44)
    t44 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v46 = decide(otis46)
    t46 = time.perf_counter() - t0
    assert v44.status == "non-hamiltonian"
    assert v46.status == "non-hamiltonian"
    assert t44 < 600 and t46 < 600

    # both cut-pair edges used: forced subcycle
    res, _ = staged_propagation(otis46, [((("4:1", "4:4"), ("4:3", "4:4")), ()), ((("4:2", "4:3"),), ())])
    assert isinstance(res, Contradiction) and res.kind == SHORT_SUBCYCLE

    # both cut-pair edges unused: forced subcycle (the 11-vertex one)
    res, _ = staged_propagation(otis46, [((), (("4:1", "4:4"), ("4:3", "4:4")))])
    assert isinstance(res, Contradiction) and res.kind == SHORT_SUBCYCLE
    assert len(res.cycle) == 11

    # branch case 1 collapses at <5,7>
    res, _ = staged_propagation(otis46, MAIN_LINE + [((("2:6", "6:2"),), ()), (tuple(CASE_1_FINAL), ())])
    assert isinstance(res, Contradiction)
    assert res.kind == VERTEX_UNDERFILLED and res.vertex == "5:7"

    # branch case 2, first sub-case collapses at <9,7>
    res, _ = staged_propagation(otis46, CASE_2_PREFIX + [((("5:7", "5:6"), ("5:7", "5:8")), ())])
    assert isinstance(res, Contradiction)
    assert res.kind == VERTEX_UNDERFILLED and res.vertex == "9:7"

    # branch case 2, second sub-case collapses at <7,2>
    res, _ = staged_propagation(otis46, CASE_2_PREFIX + [(tuple(CASE_22_FINAL), ())])
    assert isinstance(res, Contradiction)
    assert res.kind == VERTEX_UNDERFILLED and res.vertex == "7:2"

    # branch case 2, third sub-case: the forced subcycle through <7,4>
    # (its published continuation to <6,9> exists only as a figure)
    res, _ = staged_propagation(otis46, CASE_2_PREFIX + [((("5:7", "5:8"), ("5:7", "7:5")), ())])
    assert isinstance(res, Contradiction) and res.kind == SHORT_SUBCYCLE
    assert "7:4" in res.cycle and "7:5" in res.cycle and "7:9" in res.cycle

    report(
        "criterion 2 (complete refutation)",
        f"both non-hamiltonian in {t44*1e3:.0f} ms / {t46*1e3:.0f} ms; "
        "case analysis: subcycle, subcycle(11), 5:7, 9:7, 7:2, subcycle@7:4",
    )


# -- criterion 3: constructive sweep -----------------------------------------


def test_criterion_3_constructive_sweep():
    t0 = time.perf_counter()
    pairs = sweep_parameter_pairs(21)
    built = 0
    for m, n in pairs:
        result = build_ham_cycle(m, n)
        assert isinstance(result, BuildResult), f"({m},{n}) -> {result}"
        assert is_hamiltonian_cycle(otis(gen_bowtie(m, n)), result.cycle), (m, n)
        built += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert built == len(pairs)
    report(
        "criterion 3 (constructive sweep)",
        f"{built} supported pairs up to base 21 verified in {elapsed:.2f} s",
    )


# -- criterion 4: linear construction cost -----------------------------------


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mlx, mly = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mlx) * (b - mly) for a, b in zip(lx, ly)) / sum((a - mlx) ** 2 for a in lx)


# the large ladder: the sweep builds stop at OTIS(BF(11,11)), where a term
# superlinear in V barely shows
LARGE_LADDER = [(31, 30), (41, 40), (61, 60), (81, 80)]


def ham_build_seconds(m: int, n: int) -> float:
    """Median wall time of three ``ham-build --json`` commands."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ham-build", "--m", str(m), "--n", str(n), "--json"]) == 0
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_criterion_4_cost_linearity(sweep_builds, sweep_build_seconds, reference_sweep_steps):
    # the steps are the engine's, from the table-seeded reference build; a
    # table build counts one step per vertex, so its own exponent is 1
    points = []
    for (m, n), result in sweep_builds.items():
        assert result.steps == len(result.cycle) == (m + n - 1) ** 2
        if classify(m, n) is ParamClass.SMALL_FIGURE:
            continue  # their reference build is a search from an empty table
        points.append(((m + n - 1) ** 2, reference_sweep_steps[(m, n)], sweep_build_seconds[(m, n)]))
    xs = [float(v) for v, _, _ in points]
    ys = [float(s) for _, s, _ in points]
    n = len(points)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r_squared = 1 - ss_res / ss_tot
    exponent = loglog_slope(xs, ys)
    # reported only: wall time on a shared host is too noisy to bound
    wall_exponent = loglog_slope(xs, [t for _, _, t in points])
    ladder_exponent = loglog_slope(
        [float((m + n - 1) ** 2) for m, n in LARGE_LADDER], [ham_build_seconds(m, n) for m, n in LARGE_LADDER]
    )
    assert r_squared >= 0.95, r_squared
    assert exponent <= 1.15, exponent
    report(
        "criterion 4 (linear cost)",
        f"{n} builds: R^2={r_squared:.4f}, log-log exponent={exponent:.3f}, "
        f"wall-time exponent={wall_exponent:.3f}; ham-build wall-time exponent over "
        f"(31,30)-(81,80)={ladder_exponent:.3f}",
    )


# -- criterion 5: oracle equivalence -----------------------------------------


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20260808)
    graphs = [random_graph(rng) for _ in range(200)]
    fixtures = []
    for k in range(3, 11):
        fixtures.append(gen_cycle(k))
        fixtures.append(gen_complete(k) if k >= 3 else None)
    for k in range(1, 11):
        fixtures.append(gen_path(k))
    for m in range(3, 9):
        for n in range(m, 9):
            if m + n - 1 <= 10:
                fixtures.append(gen_bowtie(m, n))
    fixtures.append(otis(gen_path(2)))
    checked = 0
    for g in graphs + fixtures:
        verdict = decide(g)
        assert verdict.status in ("hamiltonian", "non-hamiltonian")
        expected = oracle_is_hamiltonian(g)
        assert verdict.is_hamiltonian == expected, g
        if verdict.is_hamiltonian:
            assert is_hamiltonian_cycle(g, verdict.cycle)
        checked += 1
    report(
        "criterion 5 (oracle equivalence)",
        f"{checked} graphs (200 random + {checked - 200} fixtures), 100% agreement",
    )


# -- criterion 6: independent spanning trees ---------------------------------


def test_criterion_6_ist_property_suite(sweep_builds):
    instances = 0
    checks = 0
    points = []
    for (m, n), result in sweep_builds.items():
        graph = otis(gen_bowtie(m, n))
        seconds = 0.0
        for root in sweep_roots(m, n, graph):
            pair = build_ists(result.cycle, root)
            t0 = time.perf_counter()
            rep = independence_report(pair, graph)
            seconds += time.perf_counter() - t0
            assert rep.vertex_disjoint, (m, n, root)
            assert rep.edge_disjoint, (m, n, root)
            assert is_spanning_tree(pair.parent1, root, graph)
            assert is_spanning_tree(pair.parent2, root, graph)
            assert len(pair.parent1) == graph.n_vertices - 1
            checks += 1
        points.append((graph.n_vertices, seconds))
        instances += 1
    # reported only: wall time on a shared host is too noisy to bound
    wall_exponent = loglog_slope([float(v) for v, _ in points], [t for _, t in points])
    report(
        "criterion 6 (IST suite)",
        f"{instances} instances x 3 roots = {checks} tree pairs, all independent; "
        f"check time {sum(t for _, t in points):.3f} s, wall-time exponent={wall_exponent:.3f}",
    )


# -- criterion 7: edge-disjointness ceiling -----------------------------------


def test_criterion_7_edge_disjoint_ceiling():
    tested = []
    for a in range(3, 8):
        for b in range(a, 8):
            if a + b - 1 > 7:
                continue
            m, n = bowtie_pair(a, b)
            result = build_ham_cycle(m, n)
            if isinstance(result, FailureReport):
                assert classify(m, n) is ParamClass.EVEN_EVEN
                continue
            used = edge_set(result.cycle)
            graph = otis(gen_bowtie(m, n))
            stripped = Graph()
            for v in graph.vertices():
                stripped.add_vertex(v)
            for u, v in graph.edges():
                if tuple(sorted((u, v))) not in used:
                    stripped.link(stripped.add_vertex(u), stripped.add_vertex(v))
            verdict = decide(stripped)
            assert verdict.status == "non-hamiltonian", (m, n)
            tested.append((m, n))
    assert tested, "no instances with base <= 7"
    report(
        "criterion 7 (edge-disjoint ceiling)",
        f"{tested}: removing the found cycle leaves non-hamiltonian graphs",
    )


# -- criterion 8: Hamiltonian bases and butterfly checks ----------------------


def test_criterion_8_hamiltonian_bases_and_butterflies():
    times = {}
    for name, base in [
        ("C3", gen_cycle(3)),
        ("C4", gen_cycle(4)),
        ("C5", gen_cycle(5)),
        ("K4", gen_complete(4)),
    ]:
        g = otis(base)
        t0 = time.perf_counter()
        verdict = decide(g)
        times[name] = time.perf_counter() - t0
        assert verdict.is_hamiltonian, name
        assert times[name] < 1.0
    for dim in (3, 4):
        bf = gen_butterfly(dim)
        assert bf.n_vertices == dim * 2**dim
        assert bf.n_edges == dim * 2 ** (dim + 1)
        assert all(bf.degree(v) == 4 for v in bf.vertices())
    report(
        "criterion 8 (hamiltonian bases)",
        "OTIS(C3/C4/C5/K4) hamiltonian in "
        + ", ".join(f"{v*1e3:.0f}ms" for v in times.values())
        + "; butterfly 3/4 counts and 4-regularity exact",
    )


# -- criterion 9: degree and diameter law --------------------------------------


def test_criterion_9_degree_and_diameter_law():
    rng = random.Random(93)
    bases = [random_connected_graph(rng, max_vertices=8) for _ in range(50)]
    for a in range(3, 8):
        for b in range(a, 8):
            if a + b - 1 <= 9:
                bases.append(gen_bowtie(a, b))
    checked = 0
    for base in bases:
        g = otis(base)
        for label in g.vertices():
            cluster, proc = divmod(g.index[label], base.n_vertices)  # <g,u> is g*N + u
            expected = base.degree(base.labels[proc]) + (1 if cluster != proc else 0)
            assert g.degree(label) == expected, label
        d = diameter(base)
        od = diameter(g)
        assert od == 2 * d + 1, f"diameter law violated: base d={d}, otis d={od}"
        checked += 1
    report(
        "criterion 9 (degree/diameter law)",
        f"{checked} bases (50 random + {checked - 50} bowties): degree formula and 2d+1 exact",
    )
