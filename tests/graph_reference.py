"""The ``graph_hash`` and ``cycle_violation`` that ``otisham.graph``
replaced, kept as the references they are tested against.

``graph_hash`` feeds the sha256 one ``update`` per tag, label and
separator, sorting each edge's label pair with ``sorted``; the package's
must give the same digest on every graph.  ``cycle_violation`` checks on
labels, with a set and a list of the whole order; the package's, on vertex
indices, must give the same answer for every order.
"""

from __future__ import annotations

import hashlib

from otisham.graph import Graph


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
