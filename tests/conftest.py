import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from otisham.cli import sweep_pairs
from otisham.constructive import BuildResult, build_ham_cycle
from otisham.engine import Contradiction, EdgeAssignment, propagate
from otisham.graph import Graph
from otisham.topology import BowtieParams

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
def sweep_builds() -> dict[tuple[int, int], BuildResult]:
    """Every supported sweep build, verified, computed once per session."""
    builds = {}
    for m, n in sweep_parameter_pairs():
        result = build_ham_cycle(m, n)
        assert isinstance(result, BuildResult), f"({m},{n}): {result}"
        builds[(m, n)] = result
    return builds


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
