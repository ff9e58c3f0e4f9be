import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from otisham.cli import sweep_pairs
from otisham import constructive
from otisham.constructive import BuildResult, ParamClass, build_ham_cycle, classify, key_edges
from otisham.engine import DELETED, FORCED, UNDECIDED, Contradiction, EdgeAssignment, propagate
from otisham.graph import Graph, _eccentricity
from otisham.topology import (
    bowtie_pair,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
    otis_label,
)

from build_reference import reference_build

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


# the bases of the golden outputs
GOLDEN_BASES = {
    "BF(3,3)": lambda: gen_bowtie(3, 3),
    "BF(3,4)": lambda: gen_bowtie(3, 4),
    "BF(4,4)": lambda: gen_bowtie(4, 4),
    "BF(4,6)": lambda: gen_bowtie(4, 6),
    "BF(4,10)": lambda: gen_bowtie(4, 10),
    "BF(6,8)": lambda: gen_bowtie(6, 8),
    "BF(7,4)": lambda: gen_bowtie(7, 4),
    "WBF(3)": lambda: gen_butterfly(3),
    "C_7": lambda: gen_cycle(7),
    "C_12": lambda: gen_cycle(12),
    "K_5": lambda: gen_complete(5),
    "K_8": lambda: gen_complete(8),
    "P_4": lambda: gen_path(4),
}


def sweep_parameter_pairs(max_base: int = 21) -> list[tuple[int, int]]:
    """Normalized supported (m, n) with i = m + n - 1 <= max_base."""
    out = []
    for a, b in sweep_pairs(max_base):
        if not (a % 2 == 0 and b % 2 == 0):
            out.append(bowtie_pair(a, b))
    return out


@pytest.fixture(scope="session")
def sweep_build_seconds() -> dict[tuple[int, int], float]:
    """Wall time of each build in ``sweep_builds``, filled in by it."""
    return {}


@pytest.fixture(scope="session")
def sweep_builds(sweep_build_seconds) -> dict[tuple[int, int], BuildResult]:
    """Every supported sweep build, verified, computed once per session."""
    builds = {}
    for m, n in sweep_parameter_pairs():
        t0 = time.perf_counter()
        result = build_ham_cycle(m, n)
        sweep_build_seconds[(m, n)] = time.perf_counter() - t0
        assert isinstance(result, BuildResult), f"({m},{n}): {result}"
        builds[(m, n)] = result
    return builds


@pytest.fixture(scope="session")
def reference_sweep_steps() -> dict[tuple[int, int], int]:
    """The engine's step count of the table-seeded reference build of each
    table-class sweep pair."""
    return {
        (m, n): reference_build(m, n).steps
        for m, n in sweep_parameter_pairs()
        if classify(m, n) is not ParamClass.SMALL_FIGURE
    }


# Key-edge tables that ``build_ham_cycle`` rejects: name -> (m, n, the rows
# written on a ``_Rows``, the ``KeyEdgeError`` message).  A faulty table
# names a row the base graph rejects.  A contradicting one adds a cycle
# edge of a small figure to its key table, so the walk finds a vertex with
# the wrong number of cycle edges.  Each once reached a failure path of the
# seeded decider that built the small figures: seeding, the fixpoint's
# underfill and subcycle checks, and the residual search.
FAULTY_TABLES = {
    "cluster out of range": (
        3, 3, lambda r: r.add(r.i + 1, 1, 2, "probe"), "cluster 6: probe: cluster 6 out of range"),
    "not a base edge": (
        3, 4, lambda r: r.add(1, 1, 4, "probe"), "cluster 1: probe: (1,4) is not a base edge"),
}
CONTRADICTING_TABLES = {
    "seeding": (3, 3, lambda r: r.add(1, 1, 2, "probe"), "small-figure tables: 1:1 keeps 1 cycle edges"),
    "fixpoint underfill": (3, 3, lambda r: r.add(1, 4, 5, "probe"), "small-figure tables: 1:5 keeps 0 cycle edges"),
    "fixpoint subcycle": (3, 3, lambda r: r.add(3, 1, 2, "probe"), "small-figure tables: 3:2 keeps 0 cycle edges"),
    "residual search": (
        5, 7, lambda r: (r.add(5, 1, 2, "probe"), r.add(5, 3, 4, "probe")),
        "small-figure tables: 5:4 keeps 0 cycle edges"),
}


def use_table(monkeypatch, m: int, n: int, rows) -> None:
    """Give the class of (m, n) the table ``rows`` for one test."""
    monkeypatch.setitem(constructive._TABLES, classify(m, n), rows)


def use_completion(monkeypatch, m: int, n: int, rows) -> None:
    """Give the class of (m, n) the completion table ``rows`` for one test."""
    monkeypatch.setitem(constructive._COMPLETIONS, classify(m, n), rows)


# one pair of each table class, small enough to build hundreds of times
TABLE_CLASS_PAIRS = [(7, 7), (3, 9), (7, 9), (3, 8), (7, 8)]


def peak_bytes(fn):
    """``fn()``'s result and the peak bytes ``tracemalloc`` traced while it
    ran; tracing stops even if ``fn`` raises."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep_roots(m: int, n: int, graph: Graph) -> list[str]:
    """The three IST roots ``sweep`` checks on OTIS(BF(m,n)): the first
    vertex, <c,c> at the cut vertex c and the last vertex."""
    c = str(bowtie_pair(m, n)[0])
    return [graph.labels[0], otis_label(c, c), graph.labels[-1]]


def table_seed(m: int, n: int) -> tuple[Graph, EdgeAssignment]:
    """OTIS(BF(m,n)) and the fixpoint of its key-edge table deletions, the
    seed that the reference build (``build_reference.py``) hands to
    ``decide``."""
    graph = otis(gen_bowtie(m, n))
    asg = EdgeAssignment.for_graph(graph)
    for ke in key_edges(m, n):
        asg.seed_delete(otis_label(str(ke.cluster), str(ke.a)), otis_label(str(ke.cluster), str(ke.b)))
    assert isinstance(propagate(asg), EdgeAssignment), (m, n)
    return graph, asg


def staged_propagation(graph, stages):
    """Apply (forced, deleted) seed batches with a propagation fixpoint
    between each; returns (first Contradiction, its stage index) or
    (final assignment, None)."""
    asg = EdgeAssignment.for_graph(graph)
    res = propagate(asg)
    assert isinstance(res, EdgeAssignment)
    for k, (forced, deleted) in enumerate(stages):
        for u, v in forced:
            asg.seed_force(u, v)
            if asg.conflict is not None:
                return asg.conflict, k
        for u, v in deleted:
            asg.seed_delete(u, v)
            if asg.conflict is not None:
                return asg.conflict, k
        res = propagate(asg)
        if isinstance(res, Contradiction):
            return res, k
    return asg, None


def assert_fixpoint_invariants(asg: EdgeAssignment) -> None:
    """The invariants that let the engine apply saturation and the chord cut
    only in ``_force``, recounted from the edge states at a conflict-free
    fixpoint: every vertex has at most two forced edges, a vertex with two
    has no other live edge, and no undecided edge joins the two ends of a
    forced chain shorter than |V|.  The derived totals ``n_forced`` and
    ``n_undecided``, and each vertex's branch key, must match the states
    too."""
    graph, state = asg.graph, asg.state
    n = graph.n_vertices
    assert asg.conflict is None and not asg.queue
    assert (asg.n_forced, asg.n_undecided) == (state.count(FORCED), state.count(UNDECIDED))
    forced, live = [0] * n, [0] * n
    for eid, (a, b) in enumerate(graph.ends):
        for v in (a, b):
            forced[v] += state[eid] == FORCED
            live[v] += state[eid] != DELETED
    assert (forced, live) == (asg.forced, asg.live)
    for v in range(n):
        assert forced[v] <= 2, f"{graph.labels[v]} has {forced[v]} forced edges"
        assert forced[v] < 2 or live[v] == 2, f"{graph.labels[v]} is saturated with {live[v]} live edges"
    # live, plus n + 1 off a path end, plus n + 1 more once saturated
    assert asg.key == [lv + (n + 1) * (1, 0, 2)[f] for f, lv in zip(forced, live)]
    for start in range(n):
        if forced[start] != 1:
            continue
        # walk the forced chain from one of its ends to the other
        prev, cur, size = -1, start, 1
        while True:
            step = [w for eid in graph.incident[cur] if state[eid] == FORCED
                    for w in graph.ends[eid] if w not in (cur, prev)]
            if not step:
                break
            prev, cur, size = cur, step[0], size + 1
        chord = graph.edge_id.get((min(start, cur), max(start, cur)))
        if size < n and chord is not None:
            assert state[chord] != UNDECIDED, (
                f"chain {graph.labels[start]}..{graph.labels[cur]} of {size} < {n} vertices keeps its chord"
            )


# the published OTIS(BF(4,6)) case analysis: the consistent main line
MAIN_LINE = [
    ((("4:3", "4:4"),), (("4:1", "4:4"),)),  # exactly one cut-pair edge; pick 4:3
    ((("4:4", "4:9"),), ()),
    ((("9:2", "9:3"),), ()),
]


def diameter(graph: Graph) -> int:
    """Exact diameter of a connected graph, by a BFS from every vertex."""
    n = graph.n_vertices
    worst = 0
    for v in range(n):
        far, reached = _eccentricity(graph, v)
        assert reached == n, "graph is disconnected"
        worst = max(worst, far)
    return worst


def edge_set(order: tuple[str, ...]) -> set[tuple[str, str]]:
    """The cycle's edges as label pairs, lower label first."""
    return {(u, v) if u < v else (v, u) for u, v in zip(order, order[1:] + order[:1])}


def random_graph(rng: random.Random, max_vertices: int = 10) -> Graph:
    n = rng.randint(1, max_vertices)
    p = rng.uniform(0.1, 0.9)
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(str(v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                g.link(g.add_vertex(str(u)), g.add_vertex(str(v)))
    return g


def random_connected_graph(rng: random.Random, max_vertices: int = 8) -> Graph:
    from otisham.graph import is_connected

    while True:
        n = rng.randint(2, max_vertices)
        p = rng.uniform(0.3, 0.9)
        g = Graph()
        for v in range(1, n + 1):
            g.add_vertex(str(v))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < p:
                    g.link(g.add_vertex(str(u)), g.add_vertex(str(v)))
        if is_connected(g):
            return g
