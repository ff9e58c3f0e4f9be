"""Undirected simple graphs, stored once by vertex index.

Vertex labels are opaque strings, numbered 0, 1, 2, ... in order of first
appearance (``labels[k]``, ``index[label]``).  Edge ids count insertions:
``ends[e]`` holds edge e's endpoint indices, lower first, ``edge_id`` maps
that pair back to e, and ``incident[v]`` lists v's edge ids in insertion
order.  Generators, metrics and the engine read these arrays; only this
module maps labels to indices.  The label-level methods are views over the
arrays, and ``edges()`` keeps each edge's insertion orientation, so
exports are reproducible run to run.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Raised for malformed graph mutations or queries."""


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("labels", "index", "ends", "flipped", "edge_id", "incident")

    def __init__(self):
        self.labels: list[str] = []
        self.index: dict[str, int] = {}
        self.ends: list[tuple[int, int]] = []
        self.flipped = bytearray()  # 1 where an edge was added higher index first
        self.edge_id: dict[tuple[int, int], int] = {}
        self.incident: list[list[int]] = []

    @classmethod
    def from_edges(cls, edges, vertices=()) -> "Graph":
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for u, v in edges:
            g.add_vertex(u)
            g.add_vertex(v)
            g.add_edge(u, v)
        return g

    def add_vertex(self, v: str) -> None:
        if not v or any(ch.isspace() for ch in v):
            raise GraphError(f"vertex label must be non-empty and whitespace-free: {v!r}")
        if v not in self.index:
            self.index[v] = len(self.labels)
            self.labels.append(v)
            self.incident.append([])

    def add_edge(self, u: str, v: str) -> None:
        if u not in self.index or v not in self.index:
            missing = u if u not in self.index else v
            raise GraphError(f"edge endpoint {missing!r} is not a declared vertex")
        self.link(self.index[u], self.index[v])

    def link(self, a: int, b: int) -> None:
        """Add the edge between vertex indices ``a`` and ``b``, oriented a to b."""
        if a == b:
            raise GraphError(f"self-loop rejected at {self.labels[a]!r}")
        key = (a, b) if a < b else (b, a)
        if key in self.edge_id:
            raise GraphError(f"parallel edge rejected: ({self.labels[a]!r}, {self.labels[b]!r})")
        eid = len(self.ends)
        self.edge_id[key] = eid
        self.ends.append(key)
        self.flipped.append(a > b)
        self.incident[a].append(eid)
        self.incident[b].append(eid)

    def edge_index(self, u: str, v: str) -> int:
        """The edge id of {u, v}."""
        a, b = self._vertex(u), self._vertex(v)
        eid = self.edge_id.get((a, b) if a < b else (b, a))
        if eid is None:
            raise GraphError(f"({u!r}, {v!r}) is not an edge of the graph")
        return eid

    def oriented_ends(self) -> list[tuple[int, int]]:
        """Each edge's endpoint indices in the orientation it was added in."""
        return [(b, a) if f else (a, b) for (a, b), f in zip(self.ends, self.flipped)]

    def vertices(self) -> list[str]:
        return list(self.labels)

    def edges(self) -> list[tuple[str, str]]:
        lab = self.labels
        return [(lab[a], lab[b]) for a, b in self.oriented_ends()]

    def neighbors(self, v: str) -> list[str]:
        k = self._vertex(v)
        lab, ends = self.labels, self.ends
        return [lab[b if a == k else a] for a, b in (ends[e] for e in self.incident[k])]

    def degree(self, v: str) -> int:
        return len(self.incident[self._vertex(v)])

    def has_edge(self, u: str, v: str) -> bool:
        a, b = self.index.get(u), self.index.get(v)
        if a is None or b is None:
            return False
        return ((a, b) if a < b else (b, a)) in self.edge_id

    def _vertex(self, v: str) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.ends)

    def __contains__(self, v: str) -> bool:
        return v in self.index

    def __repr__(self):
        return f"Graph(|V|={self.n_vertices}, |E|={self.n_edges})"


def graph_hash(graph: Graph) -> str:
    """Stable content hash over the sorted vertex and edge sets."""
    h = hashlib.sha256()
    for v in sorted(graph.vertices()):
        h.update(b"v")
        h.update(v.encode())
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges()):
        h.update(b"e")
        h.update(u.encode())
        h.update(b" ")
        h.update(v.encode())
    return h.hexdigest()


@dataclass(frozen=True)
class HamCycle:
    """Cyclic vertex order certified against a host graph."""

    order: tuple[str, ...]

    def __len__(self):
        return len(self.order)

    def edge_set(self) -> set[tuple[str, str]]:
        n = len(self.order)
        out = set()
        for k in range(n):
            u, v = self.order[k], self.order[(k + 1) % n]
            out.add((u, v) if u < v else (v, u))
        return out


def cycle_violation(graph: Graph, order) -> str | None:
    """Why ``order`` is not a Hamiltonian cycle of ``graph`` (None if it is)."""
    if isinstance(order, HamCycle):
        order = order.order
    order = list(order)
    if len(order) != graph.n_vertices:
        return "length-mismatch"
    if len(set(order)) != len(order):
        return "duplicate-vertex"
    for v in order:
        if v not in graph:
            return "unknown-vertex"
    if len(order) < 3:
        return "too-short"
    for k, u in enumerate(order):
        v = order[(k + 1) % len(order)]
        if not graph.has_edge(u, v):
            return f"non-adjacent-step:{u}-{v}"
    return None


def is_hamiltonian_cycle(graph: Graph, order) -> bool:
    return cycle_violation(graph, order) is None


def max_edge_disjoint_ham_bound(graph: Graph) -> int:
    """Ceiling on pairwise edge-disjoint Hamiltonian cycles: floor(min degree / 2)."""
    if graph.n_vertices == 0:
        raise GraphError("empty graph")
    return min(len(inc) for inc in graph.incident) // 2


@dataclass(frozen=True)
class GraphMetrics:
    min_degree: int
    max_degree: int
    diameter: float  # math.inf when disconnected
    vertex_connectivity: int
    connectivity_exact: bool


def _eccentricity(graph: Graph, source: int) -> tuple[int, int]:
    """(max BFS depth from vertex index source, number of reached vertices)."""
    ends, incident = graph.ends, graph.incident
    dist = [-1] * graph.n_vertices
    dist[source] = 0
    q = deque([source])
    far = 0
    reached = 1
    while q:
        u = q.popleft()
        for e in incident[u]:
            a, b = ends[e]
            w = b if a == u else a
            if dist[w] < 0:
                dist[w] = far = dist[u] + 1
                reached += 1
                q.append(w)
    return far, reached


def diameter(graph: Graph) -> float:
    """Exact diameter by all-pairs BFS; inf when disconnected."""
    n = graph.n_vertices
    if n == 0:
        raise GraphError("empty graph")
    worst = 0
    for v in range(n):
        ecc, reached = _eccentricity(graph, v)
        if reached != n:
            return math.inf
        worst = max(worst, ecc)
    return float(worst)


def is_connected(graph: Graph) -> bool:
    return graph.n_vertices == 0 or _eccentricity(graph, 0)[1] == graph.n_vertices


def _vertex_maxflow(graph: Graph, s: int, t: int) -> int:
    """Internally-disjoint s-t path count via unit-capacity node splitting."""
    n = graph.n_vertices
    # node 2k = v_in, 2k+1 = v_out
    cap: dict[tuple[int, int], int] = {}
    arcs: dict[int, list[int]] = {k: [] for k in range(2 * n)}

    def add_arc(a, b, c):
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            arcs[a].append(b)
            arcs[b].append(a)
        cap[(a, b)] += c

    big = n + 1
    for k in range(n):
        add_arc(2 * k, 2 * k + 1, big if k in (s, t) else 1)
    for a, b in graph.ends:
        add_arc(2 * a + 1, 2 * b, 1)
        add_arc(2 * b + 1, 2 * a, 1)

    src, snk = 2 * s, 2 * t + 1
    flow = 0
    while True:
        parent = {src: src}
        q = deque([src])
        while q and snk not in parent:
            a = q.popleft()
            for b in arcs[a]:
                if b not in parent and cap.get((a, b), 0) > 0:
                    parent[b] = a
                    q.append(b)
        if snk not in parent:
            return flow
        b = snk
        while b != src:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] = cap.get((b, a), 0) + 1
            b = a
        flow += 1


def _has_articulation(graph: Graph) -> bool:
    """Iterative lowpoint scan for cut vertices (assumes connected input)."""
    n = graph.n_vertices
    if n < 3:
        return False
    ends, incident = graph.ends, graph.incident
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    timer = 0
    root = 0
    stack = [(root, 0)]
    disc[root] = low[root] = timer
    timer += 1
    root_children = 0
    while stack:
        v, ptr = stack[-1]
        if ptr < len(incident[v]):
            stack[-1] = (v, ptr + 1)
            a, b = ends[incident[v][ptr]]
            w = b if a == v else a
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append((w, 0))
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            p = parent[v]
            if p != -1:
                low[p] = min(low[p], low[v])
                if p != root and low[v] >= disc[p]:
                    return True
    return root_children > 1


def vertex_connectivity(graph: Graph, *, cap: int = 64) -> tuple[int, bool]:
    """(connectivity, exact?) -- exact max-flow value up to ``cap`` vertices,
    a cheap articulation-based lower bound beyond it."""
    n = graph.n_vertices
    if n == 0:
        raise GraphError("empty graph")
    if n == 1:
        return 0, True
    if not is_connected(graph):
        return 0, True
    if graph.n_edges == n * (n - 1) // 2:
        return n - 1, True
    if n > cap:
        return (1 if _has_articulation(graph) else 2), False
    best = n - 1
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in graph.edge_id:
                best = min(best, _vertex_maxflow(graph, a, b))
                if best == 0:
                    return 0, True
    return best, True


def metrics(graph: Graph, *, connectivity_cap: int = 64) -> GraphMetrics:
    """Degree extremes, exact BFS diameter, and (capped) vertex connectivity."""
    if graph.n_vertices == 0:
        raise GraphError("empty graph")
    degs = [len(inc) for inc in graph.incident]
    kappa, exact = vertex_connectivity(graph, cap=connectivity_cap)
    return GraphMetrics(
        min_degree=min(degs),
        max_degree=max(degs),
        diameter=0.0 if graph.n_vertices == 1 else diameter(graph),
        vertex_connectivity=kappa,
        connectivity_exact=exact,
    )
