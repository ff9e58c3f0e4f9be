import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from otisham.cli import sweep_pairs
from otisham.constructive import BuildResult, build_ham_cycle, key_edges
from otisham.engine import Contradiction, EdgeAssignment, propagate
from otisham.graph import Graph, HamCycle, _eccentricity
from otisham.topology import BowtieParams, gen_bowtie, otis, otis_label

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


def sweep_parameter_pairs(max_base: int = 21) -> list[tuple[int, int]]:
    """Normalized supported (m, n) with i = m + n - 1 <= max_base."""
    out = []
    for a, b in sweep_pairs(max_base):
        if not (a % 2 == 0 and b % 2 == 0):
            p = BowtieParams.normalized(a, b)
            out.append((p.m, p.n))
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


def sweep_roots(m: int, n: int, graph: Graph) -> list[str]:
    """The three IST roots ``sweep`` checks on OTIS(BF(m,n)): the first
    vertex, <c,c> at the cut vertex c and the last vertex."""
    c = str(BowtieParams.normalized(m, n).cut_vertex)
    return [graph.vertices()[0], otis_label(c, c), graph.vertices()[-1]]


def table_seed(m: int, n: int) -> tuple[Graph, EdgeAssignment]:
    """OTIS(BF(m,n)) and the fixpoint of its key-edge table deletions, the
    seed that ``build_ham_cycle`` hands to ``decide``."""
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


def edge_set(cycle: HamCycle) -> set[tuple[str, str]]:
    """The cycle's edges as label pairs, lower label first."""
    order = cycle.order
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
                g.add_edge(str(u), str(v))
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
                    g.add_edge(str(u), str(v))
        if is_connected(g):
            return g
