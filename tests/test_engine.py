import random
import tracemalloc

import pytest

from otisham.engine import (
    Contradiction,
    DELETED,
    EdgeAssignment,
    FORCED,
    SearchBudget,
    SHORT_SUBCYCLE,
    VERTEX_OVERFILLED,
    VERTEX_UNDERFILLED,
    counting_refutation,
    decide,
    propagate,
)
from otisham.graph import Graph, is_hamiltonian_cycle
from otisham.topology import gen_bowtie, gen_complete, gen_cycle, gen_path, otis

from conftest import MAIN_LINE, random_graph, staged_propagation, table_seed
from ham_oracle import oracle_all_cycles, oracle_is_hamiltonian


def test_propagate_path_forces_both_edges():
    asg = EdgeAssignment.for_graph(gen_path(3))
    res = propagate(asg)
    assert isinstance(res, EdgeAssignment)
    assert list(res.state) == [FORCED, FORCED]  # edges (1,2) and (2,3)


def test_propagate_is_monotone_and_bounded():
    g = otis(gen_bowtie(3, 4))
    asg = EdgeAssignment.for_graph(g)
    res = propagate(asg)
    assert isinstance(res, EdgeAssignment)
    assert g.n_edges - res.n_undecided == sum(1 for s in res.state if s)


def test_seeding_conflicting_directions_is_a_contradiction():
    asg = EdgeAssignment.for_graph(gen_cycle(4))
    asg.seed_force("1", "2")
    asg.seed_delete("1", "2")
    assert asg.conflict is not None


def test_overfill_detected():
    k4 = gen_complete(4)
    asg = EdgeAssignment.for_graph(k4)
    asg.seed_force("1", "2")
    asg.seed_force("1", "3")
    asg.seed_force("1", "4")
    res = propagate(asg)
    assert isinstance(res, Contradiction)
    assert res.kind == VERTEX_OVERFILLED and res.vertex == "1"


def test_underfill_detected():
    c4 = gen_cycle(4)
    asg = EdgeAssignment.for_graph(c4)
    asg.seed_delete("1", "2")
    res = propagate(asg)
    # every vertex has degree 2: one deletion forces the remainder into a
    # 3-path; the missing closure shows up as a contradiction
    assert isinstance(res, Contradiction)


def test_short_subcycle_detected():
    # both triangles of the bowtie force themselves closed: the engine
    # reports the witness cycle of its non-Hamiltonicity
    res = propagate(EdgeAssignment.for_graph(gen_bowtie(3, 3)))
    assert isinstance(res, Contradiction)
    assert res.kind == SHORT_SUBCYCLE
    assert set(res.cycle) in ({"1", "2", "3"}, {"3", "4", "5"})


def test_chord_rule_preempts_explicit_subcycle():
    g = gen_complete(5)
    asg = EdgeAssignment.for_graph(g)
    asg.seed_force("1", "2")
    asg.seed_force("2", "3")
    # the chord (1,3) is cut as soon as the chain 1-2-3 forms
    assert asg.state[g.edge_index("1", "3")] == DELETED
    asg.seed_force("3", "1")
    assert asg.conflict is not None


def test_decide_cycle_and_simple_graphs():
    v = decide(gen_cycle(5))
    assert v.is_hamiltonian
    assert list(v.cycle.order) == ["1", "2", "3", "4", "5"]
    assert decide(gen_path(4)).status == "non-hamiltonian"
    assert decide(gen_complete(6)).is_hamiltonian


def test_decide_refutes_both_even_even_instances():
    v44 = decide(otis(gen_bowtie(4, 4)))
    assert v44.status == "non-hamiltonian" and v44.nodes > 0
    v46 = decide(otis(gen_bowtie(4, 6)))
    assert v46.status == "non-hamiltonian" and v46.nodes > 0


def test_decide_rejects_a_seed_built_for_another_graph():
    # same labels, different edges: the seed's edge ids mean other edges here
    g1 = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("1", "3")])
    g2 = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("2", "4")])
    seed = EdgeAssignment.for_graph(g1)
    seed.seed_force("1", "3")
    with pytest.raises(ValueError):
        decide(g2, seed=seed)


def test_seeded_search_memory_is_small_and_leaves_the_seed_alone():
    # the table seed of OTIS(BF(31,30)) leaves a search 1,271 levels deep;
    # a state copy per level took 148 MB here
    graph, seed = table_seed(31, 30)
    before = (seed.snapshot(), seed.live[:], seed.forced[:], seed.chain_end[:], seed.n_undecided)
    tracemalloc.start()
    try:
        verdict = decide(graph, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_hamiltonian and verdict.max_depth == 1271
    assert peak < 5 * 2**20, peak
    assert (seed.snapshot(), seed.live, seed.forced, seed.chain_end, seed.n_undecided) == before


def test_decide_budget_exhaustion_is_inconclusive():
    v = decide(gen_complete(6), budget=SearchBudget(max_nodes=1))
    assert v.status == "inconclusive" and v.reason == "node-budget"


def test_decide_agrees_with_oracle_on_random_graphs():
    rng = random.Random(12345)
    for _ in range(60):
        g = random_graph(rng)
        verdict = decide(g)
        assert verdict.status in ("hamiltonian", "non-hamiltonian")
        assert verdict.is_hamiltonian == oracle_is_hamiltonian(g)
        if verdict.is_hamiltonian:
            assert is_hamiltonian_cycle(g, verdict.cycle)


def test_propagation_preserves_every_hamiltonian_extension():
    """Any cycle compatible with a seed stays compatible with the fixpoint."""
    rng = random.Random(777)
    checked = 0
    while checked < 25:
        g = random_graph(rng, max_vertices=8)
        cycles = oracle_all_cycles(g)
        if not cycles:
            continue
        checked += 1
        cycle_edges = rng.choice(cycles)
        canonical = {tuple(sorted(e)) for e in cycle_edges}
        seed_forced = rng.sample(sorted(canonical), k=min(2, len(canonical)))
        non_cycle = [
            tuple(sorted((u, v))) for u, v in g.edges() if tuple(sorted((u, v))) not in canonical
        ]
        seed_deleted = rng.sample(non_cycle, k=min(2, len(non_cycle)))
        asg = EdgeAssignment.for_graph(g)
        for u, v in seed_forced:
            asg.seed_force(u, v)
        for u, v in seed_deleted:
            asg.seed_delete(u, v)
        res = propagate(asg)
        assert isinstance(res, EdgeAssignment), "seed compatible with a cycle cannot contradict"
        on_cycle = {g.edge_index(u, v) for u, v in canonical}
        assert {e for e, s in enumerate(res.state) if s == FORCED} <= on_cycle
        assert not ({e for e, s in enumerate(res.state) if s == DELETED} & on_cycle)


def test_fixpoint_is_order_independent():
    rng = random.Random(424242)
    for trial in range(6):
        g = random_graph(rng, max_vertices=9)
        if g.n_edges == 0:
            continue
        baseline = propagate(EdgeAssignment.for_graph(g))
        base_state = baseline.snapshot() if isinstance(baseline, EdgeAssignment) else None
        for k in range(20):
            shuffled = propagate(EdgeAssignment.for_graph(g), rng=random.Random(k))
            if base_state is None:
                assert isinstance(shuffled, Contradiction)
            else:
                assert isinstance(shuffled, EdgeAssignment)
                assert shuffled.snapshot() == base_state


# -- the published case analysis for OTIS(BF(4,6)) --------------------------


@pytest.fixture(scope="module")
def otis_46():
    return otis(gen_bowtie(4, 6))


def test_case_analysis_cut_pair_cannot_be_both_used(otis_46):
    res, _ = staged_propagation(
        otis_46,
        [((("4:1", "4:4"), ("4:3", "4:4")), ()), ((("4:2", "4:3"),), ())],
    )
    assert isinstance(res, Contradiction)
    assert res.kind == SHORT_SUBCYCLE


def test_case_analysis_cut_pair_cannot_be_both_unused(otis_46):
    res, _ = staged_propagation(otis_46, [((), (("4:1", "4:4"), ("4:3", "4:4")))])
    assert isinstance(res, Contradiction)
    assert res.kind == SHORT_SUBCYCLE
    assert len(res.cycle) == 11


def test_case_analysis_main_line_stays_consistent(otis_46):
    res, _ = staged_propagation(otis_46, MAIN_LINE)
    assert isinstance(res, EdgeAssignment)


def test_counting_refutation_of_otis_44():
    cert = counting_refutation(otis(gen_bowtie(4, 4)))
    assert cert is not None
    assert cert.edge_budget == 28
    assert cert.family_bound == 20
    assert cert.independent_bound == 9
    assert cert.total_bound == 29
    assert len(cert.high_degree_family) == 7


def test_counting_refutation_inconclusive_cases():
    assert counting_refutation(otis(gen_bowtie(4, 6))) is None
    assert counting_refutation(gen_cycle(6)) is None


def test_counting_never_contradicts_the_decider():
    fixtures = [gen_cycle(5), gen_complete(5), gen_path(4), gen_bowtie(3, 3),
                otis(gen_path(2)), otis(gen_cycle(3))]
    rng = random.Random(9)
    fixtures += [random_graph(rng, max_vertices=8) for _ in range(30)]
    for g in fixtures:
        cert = counting_refutation(g)
        if cert is not None:
            assert not decide(g).is_hamiltonian
