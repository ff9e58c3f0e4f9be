"""The ``graph_hash``, ``cycle_violation`` and label-level graph
construction that ``otisham`` replaced, kept as the references they are
tested against.

``graph_hash`` feeds the sha256 one ``update`` per tag, label and
separator, sorting each edge's label pair with ``sorted``; the package's
must give the same digest on every graph.  ``cycle_violation`` checks on
labels, with a set and a list of the whole order; the package's, on vertex
indices, must give the same answer for every order.

``LabelGraph`` builds the arrays of a ``Graph`` by label: ``add_vertex``
checks every label it is given and ``add_edge`` looks both ends up in its
own label-to-index dict.  ``from_edges``, ``read_edge_list``,
``write_edge_list``, ``gen_bowtie`` and ``gen_butterfly`` build through it
as the package did before its generators and parser linked by index; the
package's must give equal arrays, and equal text, on every input.
"""

from __future__ import annotations

import hashlib

from otisham.graph import Graph, GraphError


def graph_hash(graph: Graph) -> str:
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


def cycle_violation(graph: Graph, order) -> str | None:
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


class LabelGraph:
    """The arrays of a ``Graph``, grown one label at a time."""

    def __init__(self):
        self.labels: list[str] = []
        self.index: dict[str, int] = {}
        self.ends: list[tuple[int, int]] = []
        self.flipped = bytearray()
        self.edge_id: dict[tuple[int, int], int] = {}
        self.incident: list[list[int]] = []

    def add_vertex(self, v: str) -> None:
        if v.split() != [v]:
            raise GraphError(f"vertex label must be non-empty and whitespace-free: {v!r}")
        if v not in self.index:
            self.index[v] = len(self.labels)
            self.labels.append(v)
            self.incident.append([])

    def add_edge(self, u: str, v: str) -> None:
        if u not in self.index or v not in self.index:
            raise GraphError(f"edge endpoint {u if u not in self.index else v!r} is not a declared vertex")
        a, b = self.index[u], self.index[v]
        if a == b:
            raise GraphError(f"self-loop rejected at {u!r}")
        key = (a, b) if a < b else (b, a)
        if key in self.edge_id:
            raise GraphError(f"parallel edge rejected: ({u!r}, {v!r})")
        self.edge_id[key] = len(self.ends)
        self.incident[a].append(len(self.ends))
        self.incident[b].append(len(self.ends))
        self.ends.append(key)
        self.flipped.append(a > b)


def arrays(graph) -> tuple:
    """What a ``Graph`` or a ``LabelGraph`` stores, for comparing the two."""
    return (graph.labels, graph.index, graph.ends, bytes(graph.flipped), graph.edge_id, graph.incident)


def from_edges(edges, vertices=()) -> LabelGraph:
    g = LabelGraph()
    for v in vertices:
        g.add_vertex(v)
    for u, v in edges:
        g.add_vertex(u)
        g.add_vertex(v)
        g.add_edge(u, v)
    return g


def write_edge_list(graph: Graph) -> str:
    lines = [f"V {graph.n_vertices}"]
    for v in graph.vertices():
        if graph.degree(v) == 0:
            lines.append(v)
    for u, v in graph.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> LabelGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("V "):
        raise GraphError("edge list must start with a 'V <count>' line")
    count = int(lines[0].split()[1])
    g = LabelGraph()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) > 2:
            raise GraphError(f"bad edge line: {ln!r}")
        for v in parts:
            g.add_vertex(v)
        if len(parts) == 2:
            g.add_edge(parts[0], parts[1])
    if len(g.labels) != count:
        raise GraphError(f"declared {count} vertices, found {len(g.labels)}")
    return g


def gen_bowtie(m: int, n: int) -> LabelGraph:
    """The left cycle 1..c, then the right cycle c..i, on the pair ordered
    with the odd side left, or the shorter side left when parities match."""
    if m % 2 == n % 2:
        m, n = min(m, n), max(m, n)
    elif n % 2 == 1:
        m, n = n, m
    c, i = m, m + n - 1
    g = LabelGraph()
    for v in range(1, i + 1):
        g.add_vertex(str(v))
    for v in range(1, c):
        g.add_edge(str(v), str(v + 1))
    g.add_edge(str(c), "1")
    for v in range(c, i):
        g.add_edge(str(v), str(v + 1))
    g.add_edge(str(i), str(c))
    return g


def gen_butterfly(dim: int) -> LabelGraph:
    def label(level: int, word: int) -> str:
        return f"{level}:" + "".join(str((word >> j) & 1) for j in range(dim))

    g = LabelGraph()
    for level in range(dim):
        for word in range(1 << dim):
            g.add_vertex(label(level, word))
    for level in range(dim):
        nxt = (level + 1) % dim
        for word in range(1 << dim):
            g.add_edge(label(level, word), label(nxt, word))
            g.add_edge(label(level, word), label(nxt, word ^ (1 << nxt)))
    return g
