"""Undirected simple graphs, stored once by vertex index.

Vertex labels are opaque strings, numbered 0, 1, 2, ... in order of first
appearance (``labels[k]``, ``index[label]``).  Edge ids count insertions:
``ends[e]`` holds edge e's endpoint indices, lower first, ``edge_id`` maps
that pair back to e, and ``incident[v]`` lists v's edge ids in insertion
order.  Only ``add_vertex``, which returns a label's index, and ``link``,
the one way an edge enters, write these arrays; the generators and the
engine read them.  The label-level methods are views over the arrays, and
``edges()`` keeps each edge's insertion orientation, so exports are
reproducible run to run.
"""

from __future__ import annotations

import hashlib
from collections import deque


class GraphError(ValueError):
    """The package's bad-input error: a malformed graph, query, file or
    certificate, or a size no generator takes.  ``cli.main`` exits 4 on it."""


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
            g.link(g.add_vertex(u), g.add_vertex(v))
        return g

    def add_vertex(self, v: str) -> int:
        """The index of label ``v``, numbering it next if it is new."""
        k = self.index.get(v)
        if k is None:
            if v.split() != [v]:  # empty, or split where str.isspace() holds
                raise GraphError(f"vertex label must be non-empty and whitespace-free: {v!r}")
            k = self.index[v] = len(self.labels)
            self.labels.append(v)
            self.incident.append([])
        return k

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

    def edges(self) -> list[tuple[str, str]]:
        lab = self.labels
        return [(lab[a], lab[b]) for a, b in self.oriented_ends()]

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

    def __repr__(self):
        return f"Graph(|V|={self.n_vertices}, |E|={self.n_edges})"


_HASH_BATCH = 4096  # edges per sha256 update in graph_hash


def graph_hash(graph: Graph) -> str:
    """Stable content hash over the sorted vertex and edge sets: "v" and each
    label, then "e", each edge's lower label, a space and its higher label.

    The label pairs are sorted as pairs, not as their text, and go to the
    sha256 in joined batches of ``_HASH_BATCH`` edges, one ``update`` each.
    So no text of all the edges is built: besides the vertex text, the
    memory held is the sorted list of one label pair per edge, plus one
    batch's text at a time.  ``ham-build`` works the same digest out from
    (m, n) with no such list (``topology.otis_bowtie_hash``); ``verify``,
    ``ist`` and ``decide`` hash the graph they read here."""
    lab = graph.labels
    h = hashlib.sha256("".join(["v" + v for v in sorted(lab)]).encode())
    pairs = [(u, v) if (u := lab[a]) <= (v := lab[b]) else (v, u) for a, b in graph.ends]
    pairs.sort()
    for k in range(0, len(pairs), _HASH_BATCH):
        h.update("".join([f"e{u} {v}" for u, v in pairs[k:k + _HASH_BATCH]]).encode())
    return h.hexdigest()


def cycle_violation(graph: Graph, order) -> str | None:
    """Why ``order`` is not a Hamiltonian cycle of ``graph`` (None if it is).

    The first failing check names it: length, then a repeated vertex, then
    an unknown one, then too short, then the first step in order, with the
    closing step last.  Each label is looked up once; a ``bytearray`` over
    the indices marks each vertex seen (only unknown labels go in a set),
    and each step's index pair is looked up in ``edge_id``."""
    order = tuple(order)
    n = graph.n_vertices
    if len(order) != n:
        return "length-mismatch"
    seen, unknown = bytearray(n), set()
    ks = list(map(graph.index.get, order))
    for v, k in zip(order, ks):
        if k is None:
            if v in unknown:
                return "duplicate-vertex"
            unknown.add(v)
        elif seen[k]:
            return "duplicate-vertex"
        else:
            seen[k] = 1
    if unknown:
        return "unknown-vertex"
    if n < 3:
        return "too-short"
    edge_id = graph.edge_id
    for a, b in zip(ks, ks[1:] + ks[:1]):  # the closing step comes last
        if ((a, b) if a < b else (b, a)) not in edge_id:
            return f"non-adjacent-step:{graph.labels[a]}-{graph.labels[b]}"
    return None


def is_hamiltonian_cycle(graph: Graph, order) -> bool:
    return cycle_violation(graph, order) is None


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


def is_connected(graph: Graph) -> bool:
    return graph.n_vertices == 0 or _eccentricity(graph, 0)[1] == graph.n_vertices
