"""The copy-per-level search that ``engine.decide`` replaced, kept as the
reference it is tested against.

Every search level holds a full ``EdgeAssignment`` copy, and the branch
vertex is found by a Python scan over all vertices.  ``decide`` must give
the same verdict, cycle, node count, depth, steps and reason on every input.
Unlike ``engine.decide``, this search leaves its seed as it was.
"""

from __future__ import annotations

import time
from collections import deque

from otisham.engine import (
    HAMILTONIAN,
    INCONCLUSIVE,
    NON_HAMILTONIAN,
    UNDECIDED,
    EdgeAssignment,
    HamVerdict,
    SearchBudget,
)
from otisham.graph import Graph, is_connected, is_hamiltonian_cycle


def _copy(asg: EdgeAssignment) -> EdgeAssignment:
    """An independent copy of ``asg`` with no steps."""
    new = object.__new__(EdgeAssignment)
    new.graph = asg.graph
    new.state = bytearray(asg.state)
    new.forced = asg.forced[:]
    new.live = asg.live[:]
    new.chain_end = asg.chain_end[:]
    new.n_forced = asg.n_forced
    new.conflict = asg.conflict
    new.queue = deque(asg.queue)
    new.steps = 0
    new.trail = asg.trail[:]  # n_undecided counts the edges it has not logged
    new.lo = 0
    return new


def _branch_edge(asg: EdgeAssignment) -> int:
    """Undecided edge at a minimum-live vertex; ties by vertex index, then
    by the neighbour's index."""
    best_v = -1
    best_live = None
    ends, incident = asg.graph.ends, asg.graph.incident
    for v in range(asg.graph.n_vertices):
        if asg.live[v] > asg.forced[v]:  # has an undecided incident edge
            if best_live is None or asg.live[v] < best_live:
                best_live = asg.live[v]
                best_v = v
    best_eid = -1
    best_other = None
    for eid in incident[best_v]:
        if asg.state[eid] == UNDECIDED:
            a, b = ends[eid]
            other = b if a == best_v else a
            if best_other is None or other < best_other:
                best_other = other
                best_eid = eid
    return best_eid


def decide(
    graph: Graph,
    seed: EdgeAssignment | None = None,
    budget: SearchBudget | None = None,
) -> HamVerdict:
    """Complete branch-and-propagate Hamiltonicity decision.

    Branches on an undecided edge at a minimum-live vertex, trying forced
    before deleted, with propagation closing each node.  Exhausting the
    tree proves non-Hamiltonicity; ``Inconclusive`` only on budget
    exhaustion.
    """
    budget = budget or SearchBudget()
    if seed is not None and seed.graph is not graph:
        raise ValueError("seed assignment was built for a different graph")
    if graph.n_vertices < 3 or not is_connected(graph) or min(map(len, graph.incident)) < 2:
        return HamVerdict(NON_HAMILTONIAN, nodes=0, max_depth=0)
    root = _copy(seed) if seed is not None else EdgeAssignment.for_graph(graph)
    t0 = time.monotonic()
    nodes = 0
    max_depth = 0
    steps = 0
    stack: list[tuple[EdgeAssignment, int]] = [(root, 0)]
    while stack:
        if nodes >= budget.max_nodes:
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=steps, reason="node-budget")
        if time.monotonic() - t0 > budget.max_seconds:
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=steps, reason="time-budget")
        asg, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        conflict = asg.run()
        steps += asg.steps
        asg.steps = 0
        if conflict is not None:
            continue
        if asg.is_complete():
            cycle = asg.extract_cycle()
            if not is_hamiltonian_cycle(graph, cycle):
                raise AssertionError("engine produced an invalid cycle witness")
            return HamVerdict(HAMILTONIAN, cycle=cycle, nodes=nodes, max_depth=max_depth, steps=steps)
        eid = _branch_edge(asg)
        deleted_branch = _copy(asg)
        deleted_branch._delete(eid)
        asg._force(eid)
        stack.append((deleted_branch, depth + 1))
        stack.append((asg, depth + 1))
    return HamVerdict(NON_HAMILTONIAN, nodes=nodes, max_depth=max_depth, steps=steps)
