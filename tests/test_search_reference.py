"""``engine.decide`` against the copy-per-level search it replaced.

Both must agree on status, cycle, node count, depth, steps and reason:
the trail search branches in the same order and counts the same work.
"""

import itertools
import random
import time

import pytest

from otisham import engine
from otisham.constructive import ParamClass, classify
from otisham.engine import HAMILTONIAN, UNDECIDED, EdgeAssignment, SearchBudget, decide
from otisham.topology import gen_bowtie, otis

import search_reference
from conftest import GOLDEN_BASES, random_graph, sweep_parameter_pairs, table_seed


def assert_same_verdict(graph, seed=None, budget=None):
    # the reference runs first: it copies the seed, which the trail search
    # then searches in place
    want = search_reference.decide(graph, seed=seed, budget=budget)
    got = decide(graph, seed=seed, budget=budget)
    assert got == want
    return got


@pytest.mark.parametrize(
    "m,n", [p for p in sweep_parameter_pairs(21) if classify(*p) is not ParamClass.SMALL_FIGURE]
)
def test_seeded_build_searches_match(m, n):
    graph, seed = table_seed(m, n)
    assert assert_same_verdict(graph, seed=seed).status == HAMILTONIAN


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


def test_time_budget_cut_searches_match(monkeypatch):
    # a clock that advances one second per reading runs out of a 5.5 s
    # budget at the sixth check, after five nodes
    verdicts = []
    for search in (decide, search_reference.decide):
        monkeypatch.setattr(time, "monotonic", itertools.count().__next__)
        verdicts.append(search(otis(gen_bowtie(6, 8)), budget=SearchBudget(max_seconds=5.5)))
    got, want = verdicts
    assert got == want
    assert got.status == "inconclusive" and got.reason == "time-budget" and got.nodes == 5


def _seeded_sweeps():
    for m, n in sweep_parameter_pairs(21):
        if classify(m, n) is not ParamClass.SMALL_FIGURE:
            graph, seed = table_seed(m, n)
            yield graph, seed, None


def _golden_bases():
    for name in sorted(GOLDEN_BASES):
        base = GOLDEN_BASES[name]()
        yield base, None, None
        yield otis(base), None, None  # OTIS(BF(4,4)) and OTIS(BF(4,6)) backtrack


def _random_graphs():
    rng = random.Random(20260808)
    for _ in range(200):
        yield random_graph(rng), None, None


def _budget_cuts():
    graph = otis(gen_bowtie(6, 8))
    for max_nodes in (1, 2, 7, 50):
        yield graph, None, SearchBudget(max_nodes=max_nodes)


@pytest.mark.parametrize(
    "inputs", [_seeded_sweeps, _golden_bases, _random_graphs, _budget_cuts], ids=lambda f: f.__name__[1:]
)
def test_branch_cursor_matches_the_full_scan(monkeypatch, inputs):
    # every branch the trail search takes, after deletions and after undos,
    # must be the one the reference's scan over all vertices picks
    cursor_scan = engine._branch_edge
    calls = 0

    def checked(asg):
        nonlocal calls
        calls += 1
        assert 3 not in asg.key[: asg.lo]
        assert asg.n_undecided == asg.state.count(UNDECIDED)
        eid = cursor_scan(asg)
        assert eid == search_reference._branch_edge(asg)
        return eid

    monkeypatch.setattr(engine, "_branch_edge", checked)
    for graph, seed, budget in inputs():
        engine.decide(graph, seed=seed, budget=budget)
    assert calls > 0
