"""Generators: bowtie and wrapped-butterfly base graphs, standard fixtures,
and the OTIS (swapped network) composition operator.

``bowtie_pair`` checks and orders every bowtie pair.  OTIS vertex ``"g:u"``
has cluster address ``g`` and processor address ``u``, both base-graph
labels; over an N-vertex base it has index g*N + u.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, GraphError


def bowtie_pair(m: int, n: int) -> tuple[int, int]:
    """The bowtie pair (m, n) in canonical order, after checking both cycle
    lengths are at least 3 (the error names the pair as given).

    ``m`` is the left cycle length (labels 1..c, c = m), ``n`` the right
    cycle length (labels c..i, i = m + n - 1).  Pairs are ordered so that
    m <= n when both sides share parity, and the odd side is the left
    cycle when parities differ.
    """
    if m < 3 or n < 3:
        raise GraphError(f"cycle lengths must be >= 3, got ({m}, {n})")
    if m % 2 == n % 2:
        return min(m, n), max(m, n)
    return (n, m) if n % 2 else (m, n)  # odd side goes left


def gen_bowtie(m: int, n: int) -> Graph:
    """Two cycles C_m, C_n sharing the single cut vertex c = m.

    Vertices 1..i with i = m + n - 1; the left cycle is 1-2-...-c-1 and the
    right cycle c-(c+1)-...-i-c.  Vertex v has index v - 1.
    """
    m, n = bowtie_pair(m, n)
    c, i = m, m + n - 1
    g = Graph()
    for v in range(1, i + 1):
        g.add_vertex(str(v))
    for v in range(c - 1):
        g.link(v, v + 1)
    g.link(c - 1, 0)
    for v in range(c - 1, i - 1):
        g.link(v, v + 1)
    g.link(i - 1, c - 1)
    return g


def butterfly_label(level: int, word: int, dim: int) -> str:
    """``level:bits`` with the word rendered lowest bit first."""
    bits = "".join(str((word >> j) & 1) for j in range(dim))
    return f"{level}:{bits}"


def gen_butterfly(dim: int) -> Graph:
    """Wrapped butterfly of dimension ``dim``: 4-regular on dim * 2**dim
    vertices.  (level, word) connects to level+1 mod dim with the word
    unchanged or with bit (level+1 mod dim) flipped."""
    if dim < 3:
        raise GraphError(f"butterfly dimension must be >= 3, got {dim}")
    g = Graph()
    size = 1 << dim
    for u in range(dim * size):  # (level, word) has index level * 2**dim + word
        g.add_vertex(butterfly_label(*divmod(u, size), dim))
    for u in range(dim * size):
        level, word = divmod(u, size)
        nxt = (level + 1) % dim
        g.link(u, nxt * size + word)
        g.link(u, nxt * size + (word ^ (1 << nxt)))
    return g


def otis_label(cluster: str, processor: str) -> str:
    return f"{cluster}:{processor}"


def otis(base: Graph) -> Graph:
    """Swapped network over ``base``: one cluster copy of the base per base
    vertex, plus the transpose edge <g,u> -- <u,g> for every g != u.

    Over an N-vertex base, OTIS vertex <g,u> gets index g*N + u, so the
    edges are index arithmetic and each label is formatted once."""
    verts = base.vertices()
    size = len(verts)
    if size < 2:
        raise GraphError("OTIS base needs at least 2 vertices")
    g = Graph()
    # link stores these, the ints ``index`` holds, not a fresh int per edge end
    ids = [g.add_vertex(otis_label(cluster, processor)) for cluster in verts for processor in verts]
    if g.n_vertices != size * size:
        raise GraphError("base labels collide once joined into OTIS labels")
    base_edges = base.oriented_ends()
    for offset in range(0, size * size, size):
        for a, b in base_edges:
            g.link(ids[offset + a], ids[offset + b])
    for a in range(size):
        for b in range(a + 1, size):
            g.link(ids[a * size + b], ids[b * size + a])
    return g


def gen_cycle(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"cycle needs k >= 3, got {k}")
    return Graph.from_edges((str(v), str(v % k + 1)) for v in range(1, k + 1))


def gen_path(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"path needs k >= 1, got {k}")
    labels = [str(v) for v in range(1, k + 1)]
    return Graph.from_edges(zip(labels, labels[1:]), vertices=labels)


def gen_complete(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"complete graph needs k >= 3, got {k}")
    labels = [str(v) for v in range(1, k + 1)]
    return Graph.from_edges(combinations(labels, 2), vertices=labels)
