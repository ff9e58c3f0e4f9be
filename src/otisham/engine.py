"""Forced-edge propagation and exact Hamiltonicity decisions.

Every edge of a host graph carries one of three states: undecided, forced
(must lie on the cycle) or deleted (cannot).  Three rules run to fixpoint:

* saturation: a vertex with two forced edges deletes its other edges;
* two-live: a vertex left with exactly two usable edges forces both;
* chord cut: an undecided edge joining the two ends of one forced path is
  deleted whenever forcing it would close a cycle shorter than |V|.

Rules are applied in first-in-first-out order, with the whole-graph
pass scheduled ahead of any seeded edges, so consequences spread outward
from a seed in waves over a fully saturated baseline -- the order a hand
derivation follows.  The fixpoint is order-independent; only which
witness of an inconsistent state gets reported first depends on it.

A complete decider searches over the undecided edges with this propagation
as the pruning engine, and a counting refuter certifies non-Hamiltonicity
from degree surpluses alone.  The search keeps one assignment: while it
runs, every change is logged to a trail, and backtracking undoes the trail
back to a mark (the trail-and-undo design of MiniSat, Een & Sorensson 2003).
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from .graph import Graph, HamCycle, is_connected, is_hamiltonian_cycle

UNDECIDED, FORCED, DELETED = 0, 1, 2

VERTEX_UNDERFILLED = "vertex-underfilled"
VERTEX_OVERFILLED = "vertex-overfilled"
SHORT_SUBCYCLE = "short-subcycle"


@dataclass(frozen=True)
class Contradiction:
    """Witnessed impossibility: no Hamiltonian cycle extends the state."""

    kind: str
    vertex: str | None = None
    cycle: tuple[str, ...] | None = None

    def __str__(self):
        if self.kind == SHORT_SUBCYCLE and self.cycle:
            return f"{self.kind} of length {len(self.cycle)} through {self.cycle[0]}"
        return f"{self.kind} at {self.vertex}"


class EdgeAssignment:
    """Tri-state edge labelling, over the host graph's edge ids, with
    cached per-vertex counts; the graph must not change under it.

    Transitions are monotone: an edge moves undecided -> forced or
    undecided -> deleted at most once, except that ``_undo`` takes back the
    changes logged since a trail mark.  ``steps`` counts elementary engine
    operations (state transitions plus worklist pops); undo does not lower
    it.  ``trail`` is None outside a search, so plain propagation logs
    nothing.
    """

    __slots__ = (
        "graph",
        "state",
        "forced",
        "live",
        "chain_end",
        "chain_size",
        "n_undecided",
        "conflict",
        "queue",
        "primed",
        "steps",
        "trail",
    )

    def __init__(self, graph: Graph):
        self.graph = graph
        n, m = graph.n_vertices, graph.n_edges
        self.state = bytearray(m)
        self.forced = [0] * n
        self.live = [len(inc) for inc in graph.incident]
        self.chain_end = list(range(n))
        self.chain_size = [1] * n
        self.n_undecided = m
        self.conflict: Contradiction | None = None
        self.queue: deque[int] = deque()
        self.primed = False
        self.steps = 0
        # while a search runs, one record per state transition: the edge id
        # of a deletion or of the forced edge that closes the cycle; for any
        # other forced edge, a tuple of its id and both chain ends it joins,
        # each followed by its old chain_end and chain_size
        self.trail: list | None = None

    @classmethod
    def for_graph(cls, graph: Graph) -> "EdgeAssignment":
        return cls(graph)

    def copy(self) -> "EdgeAssignment":
        new = object.__new__(EdgeAssignment)
        new.graph = self.graph
        new.state = bytearray(self.state)
        new.forced = self.forced[:]
        new.live = self.live[:]
        new.chain_end = self.chain_end[:]
        new.chain_size = self.chain_size[:]
        new.n_undecided = self.n_undecided
        new.conflict = self.conflict
        new.queue = deque(self.queue)
        new.primed = self.primed
        new.steps = 0
        new.trail = None
        return new

    def snapshot(self) -> tuple[bytes, bool]:
        return bytes(self.state), self.conflict is not None

    # -- primitives --------------------------------------------------------

    def seed_force(self, u: str, v: str) -> None:
        self._force(self.graph.edge_index(u, v))

    def seed_delete(self, u: str, v: str) -> None:
        self._delete(self.graph.edge_index(u, v))

    def _walk_chain(self, start: int) -> list[int]:
        """Vertex indices along the forced path/cycle through ``start``."""
        ends, incident = self.graph.ends, self.graph.incident
        out = [start]
        prev = -1
        cur = start
        while True:
            nxt = -1
            for eid in incident[cur]:
                if self.state[eid] == FORCED:
                    a, b = ends[eid]
                    w = b if a == cur else a
                    if w != prev:
                        nxt = w
                        break
            if nxt == -1 or nxt == start:
                break
            out.append(nxt)
            prev, cur = cur, nxt
        return out

    def _cycle_conflict(self, eid: int, start: int, size: int) -> None:
        """Forcing ``eid`` would close a cycle of ``size`` < |V| vertices
        through ``start``.  One missing exactly one vertex strands it: every
        neighbour it has sits saturated on the cycle."""
        self.state[eid] = FORCED  # include it in the witness walk
        cyc = self._walk_chain(start)
        self.state[eid] = UNDECIDED
        lab = self.graph.labels
        if size == len(lab) - 1:
            (stranded,) = set(range(len(lab))) - set(cyc)
            self.conflict = Contradiction(VERTEX_UNDERFILLED, vertex=lab[stranded])
        else:
            self.conflict = Contradiction(SHORT_SUBCYCLE, cycle=tuple(lab[k] for k in cyc))

    def _force(self, eid: int) -> None:
        if self.conflict is not None:
            return
        st = self.state[eid]
        if st == FORCED:
            return
        a, b = self.graph.ends[eid]
        lab = self.graph.labels
        if st == DELETED:
            # forcing an edge the state already excludes: its endpoint is
            # out of usable edges
            v = a if self.forced[a] >= 2 or self.live[a] <= 2 else b
            self.conflict = Contradiction(VERTEX_OVERFILLED, vertex=lab[v])
            return
        if self.forced[a] >= 2:
            self.conflict = Contradiction(VERTEX_OVERFILLED, vertex=lab[a])
            return
        if self.forced[b] >= 2:
            self.conflict = Contradiction(VERTEX_OVERFILLED, vertex=lab[b])
            return
        end_a, end_b = self.chain_end[a], self.chain_end[b]
        n = len(lab)
        # closing the chain that already joins a and b: only the Hamiltonian
        # cycle gets past this check, after which every vertex is saturated
        # and no edge is forced again
        closing = end_a == b
        if closing:
            size = self.chain_size[a]
            if size < n:
                self._cycle_conflict(eid, a, size)
                return
        self.state[eid] = FORCED
        self.steps += 1
        self.n_undecided -= 1
        self.forced[a] += 1
        self.forced[b] += 1
        self.queue.append(a)
        self.queue.append(b)
        trail = self.trail
        if closing:
            if trail is not None:
                trail.append(eid)
        else:
            merged = self.chain_size[end_a] + self.chain_size[end_b]
            if trail is not None:
                trail.append((eid, end_a, self.chain_end[end_a], self.chain_size[end_a],
                              end_b, self.chain_end[end_b], self.chain_size[end_b]))
            self.chain_end[end_a] = end_b
            self.chain_end[end_b] = end_a
            self.chain_size[end_a] = merged
            self.chain_size[end_b] = merged
            if merged < n:
                key = (end_a, end_b) if end_a < end_b else (end_b, end_a)
                chord = self.graph.edge_id.get(key)
                if chord is not None and self.state[chord] == UNDECIDED:
                    if self.live[end_a] == 2 or self.live[end_b] == 2:
                        # the chord is both required (two-live) and
                        # forbidden (it closes a short cycle): report the
                        # cycle, the real obstruction
                        self._cycle_conflict(chord, end_a, merged)
                        return
                    self._delete(chord)
                    if self.conflict is not None:
                        return
        # saturation applies the moment a vertex owns two cycle edges
        for v in (a, b):
            if self.forced[v] == 2:
                for other in self.graph.incident[v]:
                    if self.state[other] == UNDECIDED:
                        self._delete(other)
                        if self.conflict is not None:
                            return

    def _delete(self, eid: int) -> None:
        if self.conflict is not None:
            return
        st = self.state[eid]
        if st == DELETED:
            return
        a, b = self.graph.ends[eid]
        lab = self.graph.labels
        if st == FORCED:
            v = a if self.live[a] <= 2 else b
            self.conflict = Contradiction(VERTEX_UNDERFILLED, vertex=lab[v])
            return
        self.state[eid] = DELETED
        trail = self.trail
        if trail is not None:
            trail.append(eid)
        self.steps += 1
        self.n_undecided -= 1
        # both counts drop before either is checked, so undo is exact
        self.live[a] -= 1
        self.live[b] -= 1
        for v in (a, b):
            if self.live[v] < 2:
                self.conflict = Contradiction(VERTEX_UNDERFILLED, vertex=lab[v])
                return
            self.queue.append(v)

    def _undo(self, mark: int) -> None:
        """Take back every trail entry past ``mark``, newest first, and drop
        any conflict and pending work.  ``n_undecided`` is the caller's to
        restore: it is saved with the mark."""
        trail, state, ends = self.trail, self.state, self.graph.ends
        forced, live = self.forced, self.live
        chain_end, chain_size = self.chain_end, self.chain_size
        for _ in range(len(trail) - mark):
            x = trail.pop()
            if x.__class__ is tuple:  # a forced edge that joined two chains
                x, end_a, old_end_a, old_size_a, end_b, old_end_b, old_size_b = x
                chain_end[end_a], chain_size[end_a] = old_end_a, old_size_a
                chain_end[end_b], chain_size[end_b] = old_end_b, old_size_b
                a, b = ends[x]
                forced[a] -= 1
                forced[b] -= 1
            else:
                a, b = ends[x]
                if state[x] == DELETED:
                    live[a] += 1
                    live[b] += 1
                else:  # the edge that closed the cycle
                    forced[a] -= 1
                    forced[b] -= 1
            state[x] = UNDECIDED
        self.conflict = None
        self.queue.clear()

    def _apply_rules(self, v: int) -> None:
        incident = self.graph.incident[v]
        if self.forced[v] == 2:
            # saturation: drop every other incident edge
            for eid in incident:
                if self.state[eid] == UNDECIDED:
                    self._delete(eid)
                    if self.conflict is not None:
                        return
        elif self.live[v] == 2:
            # two-live: both remaining edges must be on the cycle
            for eid in incident:
                if self.state[eid] == UNDECIDED:
                    self._force(eid)
                    if self.conflict is not None:
                        return

    def run(self, rng: random.Random | None = None) -> Contradiction | None:
        """Apply rules until fixpoint or contradiction."""
        q, forced, live = self.queue, self.forced, self.live
        while q and self.conflict is None:
            if rng is None:
                v = q.popleft()
            else:
                k = rng.randrange(len(q))
                q.rotate(-k)
                v = q.popleft()
            self.steps += 1
            f, n_live = forced[v], live[v]
            if n_live > f and (f == 2 or n_live == 2):  # a rule settles an undecided edge
                self._apply_rules(v)
        if self.conflict is not None:
            q.clear()
        return self.conflict

    def prime(self) -> None:
        """Schedule a whole-graph rule pass.

        Later calls are no-ops: once an assignment has been through a full
        pass, only vertices touched since then need revisiting.
        """
        if self.primed:
            return
        self.queue.extendleft(reversed(range(self.graph.n_vertices)))
        self.primed = True

    def is_complete(self) -> bool:
        return self.conflict is None and self.n_undecided == 0

    def extract_cycle(self) -> HamCycle:
        if not self.is_complete():
            raise ValueError("assignment is not a completed cycle")
        order = self._walk_chain(0)
        if len(order) != self.graph.n_vertices:
            raise ValueError("forced edges do not cover every vertex")
        lab = self.graph.labels
        return HamCycle(order=tuple(lab[k] for k in order))


def propagate(assignment: EdgeAssignment, *, rng: random.Random | None = None):
    """Run the rules to fixpoint.  Returns the assignment, or the first
    Contradiction encountered."""
    assignment.prime()
    conflict = assignment.run(rng=rng)
    return conflict if conflict is not None else assignment


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    max_seconds: float = 600.0


HAMILTONIAN = "hamiltonian"
NON_HAMILTONIAN = "non-hamiltonian"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HamVerdict:
    status: str
    cycle: HamCycle | None = None
    nodes: int = 0
    max_depth: int = 0
    steps: int = 0  # total propagation steps over the whole search
    reason: str | None = None

    @property
    def is_hamiltonian(self) -> bool:
        return self.status == HAMILTONIAN


def _branch_edge(asg: EdgeAssignment) -> int:
    """Undecided edge at a minimum-live vertex; ties by vertex index, then
    by the neighbour's index.

    Called at a propagation fixpoint without conflict.  There saturation and
    two-live leave ``live[v] == 2`` exactly where ``forced[v] == 2``, so a
    vertex has an undecided edge exactly when ``live[v] >= 3``, and the
    branch vertex is the first index of the smallest such count: a scan in
    C, with no per-vertex structure to keep up or undo.
    """
    live = asg.live
    try:
        v = live.index(3)
    except ValueError:  # the smallest count of three or more is larger
        v = live.index(min(filter((3).__le__, live)))
    ends, state = asg.graph.ends, asg.state
    best_eid = -1
    best_other = None
    for eid in asg.graph.incident[v]:
        if state[eid] == UNDECIDED:
            a, b = ends[eid]
            other = b if a == v else a
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

    The search works on one assignment (a copy of ``seed``, which is left
    as it was) and logs every change to its trail.  Each open deleted
    branch is a stack entry of trail mark, undecided count, edge and depth;
    taking it undoes the trail to the mark and deletes the edge.  Search
    memory is O(V + E + depth).
    """
    budget = budget or SearchBudget()
    if graph.n_vertices < 3 or not is_connected(graph) or min(map(len, graph.incident)) < 2:
        return HamVerdict(NON_HAMILTONIAN, nodes=0, max_depth=0)
    if seed is not None and seed.graph is not graph:
        raise ValueError("seed assignment was built for a different graph")
    asg = seed.copy() if seed is not None else EdgeAssignment.for_graph(graph)
    asg.prime()
    trail = asg.trail = []
    t0 = time.monotonic()
    nodes = 0
    max_depth = 0
    depth = 0
    stack: list[tuple[int, int, int, int]] = []
    # (_force or _delete, edge id) that opens the next node; applied after
    # the budget checks, so a node the budget cuts off adds no steps
    enter = None
    while True:
        if nodes >= budget.max_nodes:
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=asg.steps, reason="node-budget")
        if time.monotonic() - t0 > budget.max_seconds:
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=asg.steps, reason="time-budget")
        if enter is not None:
            act, eid = enter
            act(eid)
        nodes += 1
        max_depth = max(max_depth, depth)
        if asg.run() is None:
            if asg.is_complete():
                cycle = asg.extract_cycle()
                if not is_hamiltonian_cycle(graph, cycle):
                    raise AssertionError("engine produced an invalid cycle witness")
                return HamVerdict(HAMILTONIAN, cycle=cycle, nodes=nodes, max_depth=max_depth, steps=asg.steps)
            eid = _branch_edge(asg)
            depth += 1
            stack.append((len(trail), asg.n_undecided, eid, depth))
            enter = (asg._force, eid)
            continue
        if not stack:
            return HamVerdict(NON_HAMILTONIAN, nodes=nodes, max_depth=max_depth, steps=asg.steps)
        mark, asg.n_undecided, eid, depth = stack.pop()
        asg._undo(mark)
        enter = (asg._delete, eid)


# -- counting refutation ---------------------------------------------------


@dataclass(frozen=True)
class CountingCertificate:
    """Non-Hamiltonicity witness: more unavoidably-unused edges than the
    graph has to spare."""

    edge_budget: int  # |E| - |V|
    high_degree_family: tuple[str, ...]
    family_bound: int  # sum of (deg - 2) over the family
    independent_set: tuple[str, ...]
    independent_bound: int
    total_bound: int


# the exact independent-set search is exponential; past this many degree-3
# candidates the refuter gives up and reports inconclusive
MIS_CANDIDATE_CAP = 40


def _max_independent_set(adj: dict[str, set[str]]) -> set[str]:
    """Exact maximum independent set by branch and bound.

    Iteration is sorted throughout so the returned set is deterministic.
    """

    def solve(vertices: set[str]) -> set[str]:
        for v in sorted(vertices):
            if not (adj[v] & vertices):
                rest = solve(vertices - {v})
                rest.add(v)
                return rest
        if not vertices:
            return set()
        pivot = max(sorted(vertices), key=lambda v: len(adj[v] & vertices))
        without = solve(vertices - {pivot})
        with_v = solve(vertices - {pivot} - adj[pivot])
        with_v.add(pivot)
        return with_v if len(with_v) > len(without) else without

    return solve(set(adj))


def counting_refutation(graph: Graph) -> CountingCertificate | None:
    """Refute Hamiltonicity by counting edges no cycle can use.

    A cycle uses exactly 2 edges per vertex, so |E| - |V| edges are spare.
    Each vertex of an independent family of degree >= 4 pins deg - 2 unused
    edges; degree-3 vertices with no high-degree neighbour add one more
    each when pairwise independent.  If the pinned total exceeds the spare
    budget, no Hamiltonian cycle exists.  Returns None when inconclusive
    (including when the candidate set exceeds ``MIS_CANDIDATE_CAP``).
    """
    budget = graph.n_edges - graph.n_vertices
    if budget < 0:
        return None
    high: list[str] = []
    for v in sorted(graph.vertices()):
        if graph.degree(v) >= 4 and all(not graph.has_edge(v, w) for w in high):
            high.append(v)
    family_bound = sum(graph.degree(v) - 2 for v in high)
    high_or_excluded = {v for v in graph.vertices() if graph.degree(v) >= 4}
    candidates = [
        v
        for v in graph.vertices()
        if graph.degree(v) == 3
        and not any(w in high_or_excluded for w in graph.neighbors(v))
    ]
    if len(candidates) > MIS_CANDIDATE_CAP:
        return None
    cand_set = set(candidates)
    adj = {v: {w for w in graph.neighbors(v) if w in cand_set} for v in candidates}
    mis = sorted(_max_independent_set(adj))
    total = family_bound + len(mis)
    if total <= budget:
        return None
    return CountingCertificate(
        edge_budget=budget,
        high_degree_family=tuple(high),
        family_bound=family_bound,
        independent_set=tuple(mis),
        independent_bound=len(mis),
        total_bound=total,
    )
