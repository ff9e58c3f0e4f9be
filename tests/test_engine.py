import random
from collections import deque

import pytest

from otisham import engine
from otisham.engine import (
    Contradiction,
    DELETED,
    EdgeAssignment,
    FORCED,
    SearchBudget,
    SHORT_SUBCYCLE,
    UNDECIDED,
    VERTEX_OVERFILLED,
    VERTEX_UNDERFILLED,
    counting_refutation,
    decide,
    propagate,
)
from otisham.graph import Graph, is_hamiltonian_cycle
from otisham.topology import gen_bowtie, gen_complete, gen_cycle, gen_path, otis

from conftest import (
    MAIN_LINE,
    assert_fixpoint_invariants,
    peak_bytes,
    random_graph,
    staged_propagation,
    table_seed,
)
import search_reference
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
    assert list(v.cycle) == ["1", "2", "3", "4", "5"]
    assert decide(gen_path(4)).status == "non-hamiltonian"
    assert decide(gen_complete(6)).is_hamiltonian


def test_decide_refutes_both_even_even_instances():
    v44 = decide(otis(gen_bowtie(4, 4)))
    assert v44.status == "non-hamiltonian" and v44.nodes > 0
    v46 = decide(otis(gen_bowtie(4, 6)))
    assert v46.status == "non-hamiltonian" and v46.nodes > 0


@pytest.mark.parametrize(
    "graph",
    [
        gen_path(3),
        gen_path(2),
        Graph.from_edges([("1", "2"), ("2", "3"), ("3", "1"), ("4", "5"), ("5", "6"), ("6", "4")]),
    ],
    ids=["P_3", "one edge", "two triangles"],
)
def test_seeded_decide_guard_refutes_before_searching(graph):
    # the connectivity and minimum-degree guard answers these; without it a
    # search of P_3 returns an invalid cycle witness, one of a single edge
    # takes min() of no counts and two triangles take a search node
    verdict = decide(graph, seed=EdgeAssignment(graph))
    assert verdict.status == "non-hamiltonian" and verdict.nodes == 0


def test_decide_rejects_a_seed_built_for_another_graph():
    # same labels, different edges: the seed's edge ids mean other edges here
    g1 = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("1", "3")])
    g2 = Graph.from_edges([("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("2", "4")])
    seed = EdgeAssignment.for_graph(g1)
    seed.seed_force("1", "3")
    with pytest.raises(ValueError):
        decide(g2, seed=seed)


@pytest.mark.parametrize("graph", [gen_path(3), gen_cycle(4)], ids=["P_3", "C_4"])
@pytest.mark.parametrize("decider", [decide, search_reference.decide], ids=["engine", "reference"])
def test_foreign_seed_is_rejected_before_the_guard(graph, decider):
    # P_3 fails the connectivity and minimum-degree guard, C_4 passes it;
    # a seed built for another graph is an error on both
    with pytest.raises(ValueError, match="seed assignment was built for a different graph"):
        decider(graph, seed=EdgeAssignment(gen_complete(4)))


def test_seeded_search_memory_is_small_and_completes_the_seed():
    # the table seed of OTIS(BF(31,30)) leaves a search 1,271 levels deep;
    # a state copy per level took 148 MB here
    graph, seed = table_seed(31, 30)
    verdict, peak = peak_bytes(lambda: decide(graph, seed=seed))
    assert verdict.is_hamiltonian and verdict.max_depth == 1271
    assert peak < 5 * 2**20, peak
    # the search runs on the seed itself and leaves it holding the cycle
    assert seed.is_complete() and seed.extract_cycle() == verdict.cycle


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


class ShuffledQueue(deque):
    """A work queue, holding ``queue``'s entries, that pops a random entry:
    it rotates by ``rng.randrange(len(self))`` and then pops the front."""

    def __init__(self, queue: deque, rng: random.Random):
        super().__init__(queue)
        self.rng = rng

    def popleft(self):
        self.rotate(-self.rng.randrange(len(self)))
        return super().popleft()


def test_fixpoint_is_order_independent():
    rng = random.Random(424242)
    for trial in range(6):
        g = random_graph(rng, max_vertices=9)
        if g.n_edges == 0:
            continue
        baseline = propagate(EdgeAssignment.for_graph(g))
        base_state = (
            (bytes(baseline.state), baseline.conflict is not None)
            if isinstance(baseline, EdgeAssignment)
            else None
        )
        for k in range(20):
            asg = EdgeAssignment.for_graph(g)
            asg.queue = ShuffledQueue(asg.queue, random.Random(k))
            shuffled = propagate(asg)
            if base_state is None:
                assert isinstance(shuffled, Contradiction)
            else:
                assert isinstance(shuffled, EdgeAssignment)
                assert (bytes(shuffled.state), shuffled.conflict is not None) == base_state
                assert_fixpoint_invariants(shuffled)


def test_invariants_hold_at_every_fixpoint(monkeypatch):
    # random graphs of 3-12 vertices under random seeds of force and delete
    # pairs, some of them repeated or conflicting; the invariants are checked
    # at each conflict-free seeded fixpoint and at every node the search
    # branches on, after forced branches, deleted branches and undos alike
    branch_edge = engine._branch_edge
    nodes = 0

    def checked(asg):
        nonlocal nodes
        nodes += 1
        assert_fixpoint_invariants(asg)
        return branch_edge(asg)

    monkeypatch.setattr(engine, "_branch_edge", checked)
    rng = random.Random(20261018)
    fixpoints = 0
    for _ in range(4000):
        g = random_graph(rng, max_vertices=12)
        if g.n_vertices < 3 or g.n_edges == 0:
            continue
        edges = g.edges()
        seed = EdgeAssignment(g)
        pairs = []
        for _ in range(rng.randint(0, 6)):
            pair = rng.choice(pairs) if pairs and rng.random() < 0.3 else rng.choice(edges)
            pairs.append(pair)
            (seed.seed_force if rng.random() < 0.5 else seed.seed_delete)(*pair)
        if isinstance(propagate(seed), EdgeAssignment):
            assert_fixpoint_invariants(seed)
            fixpoints += 1
        decide(g, seed=seed, budget=SearchBudget(max_nodes=rng.choice((1, 3, 50, 10**6))))
    assert fixpoints > 1000 and nodes > 2500, (fixpoints, nodes)


def undo_snapshot(asg: EdgeAssignment) -> tuple:
    return (bytes(asg.state), list(asg.forced), list(asg.live), list(asg.chain_end),
            asg.n_forced, asg.n_undecided, list(asg.trail))


def test_undo_restores_the_state_at_its_mark_exactly():
    # random graphs of up to 12 vertices under random forces and deletes,
    # each batch run to a fixpoint or a conflict; marks nest as the search's
    # do, each taken at a conflict-free fixpoint after a branch scan moved
    # the cursor.  The trail holds edge ids only, so undo must work out every
    # chain end it restores from the counts.
    rng = random.Random(20261019)
    undos = forces = 0
    for _ in range(3000):
        g = random_graph(rng, max_vertices=12)
        if g.n_edges == 0:
            continue
        asg = EdgeAssignment(g)
        marks = []
        for _ in range(10):
            conflict = asg.run()
            if marks and (conflict is not None or rng.random() < 0.3):
                mark, lo, before = marks.pop()
                asg._undo(mark)
                asg.lo = lo  # decide restores the cursor saved with the mark
                assert undo_snapshot(asg) == before
                assert asg.conflict is None and not asg.queue
                assert 3 not in asg.live[:lo]
                undos += 1
                continue
            if conflict is not None:
                break
            if rng.random() < 0.5:
                if max(asg.live) >= 3:  # a vertex to branch on
                    engine._branch_edge(asg)
                marks.append((len(asg.trail), asg.lo, undo_snapshot(asg)))
            for _ in range(rng.randint(1, 4)):
                eid = rng.randrange(g.n_edges)
                if rng.random() < 0.5:
                    forces += asg.state[eid] == UNDECIDED and asg.conflict is None
                    asg._force(eid)
                else:
                    asg._delete(eid)
    assert undos > 3000 and forces > 4000, (undos, forces)


@pytest.mark.parametrize(
    "m,n,forced,deleted",
    [(4, 6, ("4:3", "4:4"), ("4:1", "4:4")), (3, 4, ("1:4", "1:5"), ("4:2", "4:3"))],
)
def test_repeated_seed_pairs_change_nothing(m, n, forced, deleted):
    # forcing a forced edge and deleting a deleted one are no-ops: a seed
    # file that lists each pair twice searches as one that lists it once
    graph = otis(gen_bowtie(m, n))
    verdicts = []
    for repeats in (1, 2):
        seed = EdgeAssignment(graph)
        for _ in range(repeats):
            seed.seed_force(*forced)
        for _ in range(repeats):
            seed.seed_delete(*deleted)
        verdicts.append(decide(graph, seed=seed))
    assert verdicts[0] == verdicts[1] and verdicts[0].nodes > 1


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
