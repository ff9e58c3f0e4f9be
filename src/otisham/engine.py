"""Forced-edge propagation and exact Hamiltonicity decisions.

Every edge of a host graph carries one of three states: undecided, forced
(must lie on the cycle) or deleted (cannot).  Three rules run to fixpoint:

* saturation, in ``_force``: two forced edges at a vertex delete its others;
* chord cut, in ``_force``: a merge that leaves a forced path shorter than
  |V| deletes the undecided edge joining the path's two ends;
* two-live, in ``run``: a popped vertex left with two usable edges forces both.

Vertices are popped first-in-first-out, the whole-graph pass ahead of any
seed, so consequences spread outward from a seed in waves -- the order a
hand derivation follows.  The fixpoint is order-independent; only which
witness of an inconsistent state is reported first depends on it.

A complete decider searches over the undecided edges with this propagation
as the pruning engine, and a counting refuter certifies non-Hamiltonicity
from degree surpluses alone.  The search branches at the end of a forced
path, so the path it has grows (Rubin, J. ACM 21, 1974).  It keeps one
assignment, logs the id of each edge it changes to a trail, and backtracks
by undoing the trail to a mark, working out the rest (the trail of
MiniSat, Een & Sorensson 2003).
"""

from __future__ import annotations

import time
from collections import deque
from typing import NamedTuple

from .graph import Graph, is_connected, is_hamiltonian_cycle

UNDECIDED, FORCED, DELETED = 0, 1, 2

VERTEX_UNDERFILLED = "vertex-underfilled"
VERTEX_OVERFILLED = "vertex-overfilled"
SHORT_SUBCYCLE = "short-subcycle"


class Contradiction(NamedTuple):
    """Witnessed impossibility: no Hamiltonian cycle extends the state."""

    kind: str
    vertex: str | None = None
    cycle: tuple[str, ...] | None = None


class EdgeAssignment:
    """Tri-state edge labelling, over the host graph's edge ids, with
    cached per-vertex counts; the graph must not change under it.

    Transitions are monotone: an edge moves undecided -> forced or
    undecided -> deleted at most once, except that ``_undo`` takes back the
    changes logged since a trail mark.  ``steps`` counts elementary engine
    operations (state transitions plus worklist pops); undo does not lower
    it.  ``trail`` logs each transition's edge id and nothing else, so any
    state can be backtracked: ``_undo`` works out the chain ends from the
    counts, and ``n_undecided`` is the edges the trail has not logged.
    A new assignment has a whole-graph rule pass queued, so the first
    ``run`` visits every vertex ahead of anything a seed schedules.

    Saturation and the chord cut fire in ``_force``: outside a conflict,
    ``forced <= 2``, ``forced == 2`` implies ``live == 2``, and no undecided
    edge joins the two ends of a forced chain shorter than |V|.

    ``key[v]`` is v's branch key: ``live[v]``, plus |V| + 1 unless v is a
    forced-path end (exactly one forced edge), plus |V| + 1 more once v is
    saturated.  A live count is below |V|, so the keys order path ends by
    live count ahead of unforced vertices by live count, with saturated
    vertices last.  ``_force``, ``_delete`` and ``_undo`` keep it with the
    counts.
    """

    __slots__ = (
        "graph",
        "state",
        "forced",
        "live",
        "chain_end",
        "n_forced",
        "conflict",
        "queue",
        "steps",
        "trail",
        "key",
        "lo",  # branch cursor: no vertex below it has key 3
    )

    def __init__(self, graph: Graph):
        self.graph = graph
        n, m = graph.n_vertices, graph.n_edges
        self.state = bytearray(m)
        self.forced = [0] * n
        self.live = [len(inc) for inc in graph.incident]
        self.key = [d + n + 1 for d in self.live]  # no vertex is a path end yet
        # the graph's own int object per vertex, not a fresh one per entry
        self.chain_end = list(graph.index.values())
        self.n_forced = 0
        self.conflict: Contradiction | None = None
        self.queue = deque(self.chain_end)
        self.steps = 0
        self.trail: list[int] = []  # the edge id of each transition, oldest first
        self.lo = 0

    @property
    def n_undecided(self) -> int:
        return len(self.state) - len(self.trail)  # one record per transition

    @classmethod
    def for_graph(cls, graph: Graph) -> "EdgeAssignment":
        return cls(graph)

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

    def _cycle_conflict(self, eid: int, start: int) -> None:
        """Forcing ``eid`` would close a cycle of fewer than |V| vertices
        through ``start``.  One missing exactly one vertex strands it: every
        neighbour it has sits saturated on the cycle."""
        self.state[eid] = FORCED  # include it in the witness walk
        cyc = self._walk_chain(start)
        self.state[eid] = UNDECIDED
        lab = self.graph.labels
        n = len(lab)
        if len(cyc) == n - 1:
            stranded = n * (n - 1) // 2 - sum(cyc)  # indices 0..n-1 less the cycle's
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
        end_a, end_b = self.chain_end[a], self.chain_end[b]
        # closing the chain that already joins a and b closes the Hamiltonian
        # cycle: a shorter chain's chord was deleted when the chain formed
        closing = end_a == b
        self.state[eid] = FORCED
        self.steps += 1
        self.n_forced += 1
        self.forced[a] += 1
        self.forced[b] += 1
        self.queue.append(a)
        self.queue.append(b)
        self.trail.append(eid)
        # a first forced edge makes a path end, a second saturates
        forced, key, w = self.forced, self.key, len(lab) + 1
        key[a] += 2 * w if forced[a] == 2 else -w
        key[b] += 2 * w if forced[b] == 2 else -w
        if key[a] == 3 or key[b] == 3:  # lower the cursor to the first (a < b)
            self.lo = min(self.lo, a if key[a] == 3 else b)
        if not closing:
            self.chain_end[end_a] = end_b
            self.chain_end[end_b] = end_a
            # forced edges form disjoint paths, so the merged one misses a
            # vertex exactly when fewer than |V| - 1 edges are forced
            if self.n_forced < len(lab) - 1:
                pair = (end_a, end_b) if end_a < end_b else (end_b, end_a)
                chord = self.graph.edge_id.get(pair)
                if chord is not None and self.state[chord] == UNDECIDED:
                    if self.live[end_a] == 2 or self.live[end_b] == 2:
                        # the chord is both required (two-live) and
                        # forbidden (it closes a short cycle): report the
                        # cycle, the real obstruction
                        self._cycle_conflict(chord, end_a)
                        return
                    self._delete(chord)  # both ends keep two live edges
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
        self.trail.append(eid)
        self.steps += 1
        # both counts drop before either is checked, so undo is exact
        live, key = self.live, self.key
        live[a] -= 1
        live[b] -= 1
        key[a] -= 1
        key[b] -= 1
        if key[a] == 3 or key[b] == 3:  # lower the cursor to the first (a < b)
            self.lo = min(self.lo, a if key[a] == 3 else b)
        for v in (a, b):
            if live[v] < 2:
                self.conflict = Contradiction(VERTEX_UNDERFILLED, vertex=lab[v])
                return
            self.queue.append(v)

    def _undo(self, mark: int) -> None:
        """Take back every trail entry past ``mark``, newest first, and drop
        any conflict and pending work.  Each entry took one edge out of
        undecided.  ``lo`` is the caller's to restore: it is saved with the mark.

        A forced edge's chain ends are worked out, not logged.  Once its
        forced counts are lowered, an endpoint with none was a one-vertex
        chain.  One with one forced edge became interior when the edge
        merged its chain, and interior vertices are never written, so its
        ``chain_end`` still names its old chain's other end.  The edge that
        closed the cycle is the one whose ends each keep one forced edge and
        name each other; it changed no chain."""
        trail, state, ends = self.trail, self.state, self.graph.ends
        forced, live, chain_end, key = self.forced, self.live, self.chain_end, self.key
        w = len(key) + 1
        for _ in range(len(trail) - mark):
            x = trail.pop()
            a, b = ends[x]
            if state[x] == DELETED:
                live[a] += 1
                live[b] += 1
                key[a] += 1
                key[b] += 1
            else:
                self.n_forced -= 1
                key[a] += w if forced[a] == 1 else -2 * w
                key[b] += w if forced[b] == 1 else -2 * w
                forced[a] -= 1
                forced[b] -= 1
                if not forced[a] or chain_end[a] != b:  # not the closing edge
                    for v in a, b:
                        if forced[v]:  # v's old chain end takes v back
                            chain_end[chain_end[v]] = v
                        else:
                            chain_end[v] = v
            state[x] = UNDECIDED
        self.conflict = None
        self.queue.clear()

    def run(self) -> Contradiction | None:
        """Apply the two-live rule until fixpoint or contradiction."""
        q, forced, live, state = self.queue, self.forced, self.live, self.state
        while q and self.conflict is None:
            v = q.popleft()
            self.steps += 1
            if live[v] == 2 and forced[v] < 2:
                # two-live: both remaining edges must be on the cycle
                for eid in self.graph.incident[v]:
                    if state[eid] == UNDECIDED:
                        self._force(eid)
        if self.conflict is not None:
            q.clear()
        return self.conflict

    def is_complete(self) -> bool:
        return self.conflict is None and self.n_undecided == 0

    def extract_cycle(self) -> tuple[str, ...]:
        if not self.is_complete():
            raise ValueError("assignment is not a completed cycle")
        order = self._walk_chain(0)
        if len(order) != self.graph.n_vertices:
            raise ValueError("forced edges do not cover every vertex")
        lab = self.graph.labels
        return tuple(lab[k] for k in order)


def propagate(assignment: EdgeAssignment):
    """Run the rules to fixpoint.  Returns the assignment, or the first
    Contradiction encountered."""
    conflict = assignment.run()
    return conflict if conflict is not None else assignment


class SearchBudget(NamedTuple):
    max_nodes: int = 10_000_000
    max_seconds: float = 600.0


HAMILTONIAN = "hamiltonian"
NON_HAMILTONIAN = "non-hamiltonian"
INCONCLUSIVE = "inconclusive"


class HamVerdict(NamedTuple):
    status: str
    cycle: tuple[str, ...] | None = None
    nodes: int = 0
    max_depth: int = 0
    steps: int = 0  # propagation steps of the search, not of its seed
    reason: str | None = None


def _branch_edge(asg: EdgeAssignment) -> int:
    """Undecided edge at a forced-path end with the fewest live edges, or,
    when no vertex has exactly one forced edge, at a vertex with the fewest
    live edges; ties by vertex index, then by the neighbour's index.

    Called at a propagation fixpoint without conflict.  There saturation and
    two-live leave every vertex with fewer than two forced edges at least
    three live edges, so every vertex that is not saturated has an
    undecided edge, and the branch vertex is the first index of the
    smallest branch key.  The smallest key a path end can have is three.  A
    scan in C finds it from the cursor ``asg.lo``: a change that leaves a
    key of three lowers it to that vertex, a backtrack restores the value
    saved with its trail mark (the keys are as they were then), and each
    scan moves it up to the vertex found, or past the last vertex when no
    key is three, so no node rescans from vertex 0.
    """
    key = asg.key
    try:
        v = asg.lo = key.index(3, asg.lo)
    except ValueError:  # the smallest key is larger
        v = key.index(min(key))
        asg.lo = len(key)
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

    Branches on an undecided edge at the end of a forced path with the
    fewest live edges, so that the path grows, or at a vertex with the
    fewest live edges when no path has begun; it tries forced before
    deleted, with propagation closing each node.  Exhausting the tree
    proves non-Hamiltonicity; ``Inconclusive`` only on budget exhaustion.

    The search changes ``seed`` in place (or a fresh assignment) and logs
    every change to its trail; a Hamiltonian verdict leaves it complete.
    Each open deleted branch is a ``(mark, cursor, edge, depth)`` tuple on
    the stack; taking it undoes the trail to the mark, restores the branch
    cursor and deletes the edge.  Search memory is O(V + E + depth).
    """
    budget = budget or SearchBudget()
    if seed is not None and seed.graph is not graph:
        raise ValueError("seed assignment was built for a different graph")
    if graph.n_vertices < 3 or not is_connected(graph) or min(map(len, graph.incident)) < 2:
        return HamVerdict(NON_HAMILTONIAN, nodes=0, max_depth=0)
    asg = seed if seed is not None else EdgeAssignment.for_graph(graph)
    steps0 = asg.steps
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
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=asg.steps - steps0, reason="node-budget")
        if time.monotonic() - t0 > budget.max_seconds:
            return HamVerdict(INCONCLUSIVE, nodes=nodes, max_depth=max_depth, steps=asg.steps - steps0, reason="time-budget")
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
                return HamVerdict(HAMILTONIAN, cycle=cycle, nodes=nodes, max_depth=max_depth, steps=asg.steps - steps0)
            eid = _branch_edge(asg)
            depth += 1
            stack.append((len(asg.trail), asg.lo, eid, depth))
            enter = (asg._force, eid)
            continue
        if not stack:
            return HamVerdict(NON_HAMILTONIAN, nodes=nodes, max_depth=max_depth, steps=asg.steps - steps0)
        mark, asg.lo, eid, depth = stack.pop()
        asg._undo(mark)
        enter = (asg._delete, eid)


# -- counting refutation ---------------------------------------------------


class CountingCertificate(NamedTuple):
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

    The family is taken greedily in label order (labels sort as strings),
    in one pass over vertex indices that marks each member's neighbours;
    outside the capped independent-set search the cost is O(V log V + E).
    """
    budget = graph.n_edges - graph.n_vertices
    if budget < 0:
        return None
    labels, ends = graph.labels, graph.ends
    nbrs = [[b if a == k else a for a, b in map(ends.__getitem__, inc)] for k, inc in enumerate(graph.incident)]
    deg = list(map(len, nbrs))
    high: list[int] = []
    marked = bytearray(len(labels))
    for v in sorted(range(len(labels)), key=labels.__getitem__):
        if deg[v] >= 4 and not marked[v]:
            high.append(v)
            for w in nbrs[v]:
                marked[w] = 1
    family_bound = sum(deg[v] - 2 for v in high)
    candidates = [v for v, ws in enumerate(nbrs) if len(ws) == 3 and all(deg[w] < 4 for w in ws)]
    if len(candidates) > MIS_CANDIDATE_CAP:
        return None
    cand_set = set(candidates)
    adj = {labels[v]: {labels[w] for w in nbrs[v] if w in cand_set} for v in candidates}
    mis = sorted(_max_independent_set(adj))
    total = family_bound + len(mis)
    if total <= budget:
        return None
    family = tuple(labels[v] for v in high)
    return CountingCertificate(budget, family, family_bound, tuple(mis), len(mis), total)
