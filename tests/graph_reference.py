"""The ``graph_hash`` that ``otisham.graph`` replaced, kept as the
reference it is tested against.

It feeds the sha256 one ``update`` per tag, label and separator, sorting
each edge's label pair with ``sorted``.  ``graph_hash`` must give the same
digest on every graph.
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
