"""The copy-per-level search that ``engine.decide`` replaced, kept as the
reference it is tested against.

Every search level holds a full ``EdgeAssignment`` copy, and the branch
vertex is found by a Python scan over all vertices.  ``decide`` must give
the same verdict, cycle, node count, depth, steps and reason on every input.
Unlike ``engine.decide``, this search leaves its seed as it was.

``min_live_branch_edge`` is the rule the engine branched by before it
branched at forced-path ends: the fewest live edges anywhere.  The small
figures' reference cycles were read from searches under it, so
``build_reference`` still searches them that way.
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
    new.key = asg.key[:]
    new.lo = 0
    return new


def _open_vertices(asg: EdgeAssignment) -> list[int]:
    """Vertices with an undecided incident edge, in index order."""
    return [v for v in range(asg.graph.n_vertices) if asg.live[v] > asg.forced[v]]


def _edge_at_fewest_live(asg: EdgeAssignment, vertices: list[int]) -> int:
    """Undecided edge at the vertex of ``vertices`` with the fewest live
    edges; ties by vertex index, then by the neighbour's index."""
    best_v = min(vertices, key=lambda v: (asg.live[v], v))
    ends = asg.graph.ends
    undecided = [eid for eid in asg.graph.incident[best_v] if asg.state[eid] == UNDECIDED]
    return min(undecided, key=lambda eid: sum(ends[eid]) - best_v)  # the neighbour


def _branch_edge(asg: EdgeAssignment) -> int:
    """Undecided edge at a forced-path end (one forced edge) with the
    fewest live edges or, when there is none, at any vertex with the
    fewest live edges; ties by vertex index, then by the neighbour's index."""
    vertices = _open_vertices(asg)
    return _edge_at_fewest_live(asg, [v for v in vertices if asg.forced[v] == 1] or vertices)


def min_live_branch_edge(asg: EdgeAssignment) -> int:
    """Undecided edge at a vertex with the fewest live edges; ties by vertex
    index, then by the neighbour's index."""
    return _edge_at_fewest_live(asg, _open_vertices(asg))


def decide(
    graph: Graph,
    seed: EdgeAssignment | None = None,
    budget: SearchBudget | None = None,
    branch_edge=_branch_edge,
) -> HamVerdict:
    """Complete branch-and-propagate Hamiltonicity decision.

    Branches on the undecided edge ``branch_edge`` picks, trying forced
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
        eid = branch_edge(asg)
        deleted_branch = _copy(asg)
        deleted_branch._delete(eid)
        asg._force(eid)
        stack.append((deleted_branch, depth + 1))
        stack.append((asg, depth + 1))
    return HamVerdict(NON_HAMILTONIAN, nodes=nodes, max_depth=max_depth, steps=steps)
