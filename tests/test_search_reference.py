"""``engine.decide`` against the copy-per-level search it replaced.

Both must agree on status, cycle, node count, depth, steps and reason:
the trail search branches in the same order and counts the same work.
"""

import random

import pytest

from otisham.constructive import ParamClass, classify
from otisham.engine import EdgeAssignment, SearchBudget, decide
from otisham.topology import gen_bowtie, gen_butterfly, gen_complete, gen_cycle, gen_path, otis

import search_reference
from conftest import random_graph, sweep_parameter_pairs, table_seed

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


def assert_same_verdict(graph, seed=None, budget=None):
    # the trail search runs first: a seed it changed would show as a
    # different reference verdict
    got = decide(graph, seed=seed, budget=budget)
    want = search_reference.decide(graph, seed=seed, budget=budget)
    assert got == want
    return got


@pytest.mark.parametrize(
    "m,n", [p for p in sweep_parameter_pairs(21) if classify(*p) is not ParamClass.SMALL_FIGURE]
)
def test_seeded_build_searches_match(m, n):
    graph, seed = table_seed(m, n)
    assert assert_same_verdict(graph, seed=seed).is_hamiltonian


@pytest.mark.parametrize("name", sorted(GOLDEN_BASES))
def test_golden_base_searches_match(name):
    base = GOLDEN_BASES[name]()
    assert_same_verdict(base)
    verdict = assert_same_verdict(otis(base))
    if name in ("BF(4,4)", "BF(4,6)"):
        # the whole tree is exhausted
        assert verdict.status == "non-hamiltonian" and verdict.nodes > 1


def test_seeded_refutation_matches():
    graph = otis(gen_bowtie(4, 6))
    seed = EdgeAssignment.for_graph(graph)
    seed.seed_force("4:3", "4:4")
    seed.seed_delete("4:1", "4:4")
    assert_same_verdict(graph, seed=seed)


def test_random_graph_searches_match():
    rng = random.Random(20260808)  # the 200 graphs of acceptance criterion 5
    for _ in range(200):
        assert_same_verdict(random_graph(rng))


@pytest.mark.parametrize("max_nodes", [1, 2, 7, 50])
def test_budget_cut_searches_match(max_nodes):
    verdict = assert_same_verdict(otis(gen_bowtie(6, 8)), budget=SearchBudget(max_nodes=max_nodes))
    assert verdict.status == "inconclusive" and verdict.nodes == max_nodes
