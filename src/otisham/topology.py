"""Generators: bowtie and wrapped-butterfly base graphs, standard fixtures,
and the OTIS (swapped network) composition operator.

OTIS vertices are labelled ``"g:u"`` where ``g`` is the cluster address and
``u`` the processor address, both base-graph labels; over an N-vertex base
vertex <g,u> has index g*N + u.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph import Graph, GraphError


class _CycleLengths(NamedTuple):
    m: int
    n: int


class BowtieParams(_CycleLengths):
    """Canonical parameters for the two-cycles-at-a-cut-vertex graph.

    ``m`` is the left cycle length (labels 1..c, c = m), ``n`` the right
    cycle length (labels c..i, i = m + n - 1).  Pairs are normalised so
    that m <= n when both sides share parity, and the odd side is the
    left cycle when parities differ.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "BowtieParams":
        if m < 3 or n < 3:
            raise GraphError(f"cycle lengths must be >= 3, got ({m}, {n})")
        return super().__new__(cls, m, n)

    @classmethod
    def normalized(cls, m: int, n: int) -> "BowtieParams":
        if m % 2 == n % 2:
            m, n = min(m, n), max(m, n)
        elif n % 2 == 1:  # odd side goes left
            m, n = n, m
        return cls(m, n)

    @property
    def cut_vertex(self) -> int:
        return self.m

    @property
    def last_vertex(self) -> int:
        return self.m + self.n - 1


def gen_bowtie(m: int, n: int) -> Graph:
    """Two cycles C_m, C_n sharing the single cut vertex c = m.

    Vertices 1..i with i = m + n - 1; the left cycle is 1-2-...-c-1 and the
    right cycle c-(c+1)-...-i-c.
    """
    p = BowtieParams.normalized(m, n)
    c, i = p.cut_vertex, p.last_vertex
    g = Graph()
    for v in range(1, i + 1):
        g.add_vertex(str(v))
    for v in range(1, c):
        g.add_edge(str(v), str(v + 1))
    g.add_edge(str(c), "1")
    for v in range(c, i):
        g.add_edge(str(v), str(v + 1))
    g.add_edge(str(i), str(c))
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
    for level in range(dim):
        for word in range(1 << dim):
            g.add_vertex(butterfly_label(level, word, dim))
    for level in range(dim):
        nxt = (level + 1) % dim
        for word in range(1 << dim):
            u = butterfly_label(level, word, dim)
            g.add_edge(u, butterfly_label(nxt, word, dim))
            g.add_edge(u, butterfly_label(nxt, word ^ (1 << nxt), dim))
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
    for cluster in verts:
        for processor in verts:
            g.add_vertex(otis_label(cluster, processor))
    if g.n_vertices != size * size:
        raise GraphError("base labels collide once joined into OTIS labels")
    base_edges = base.oriented_ends()
    ids = list(g.index.values())  # link stores these, not a fresh int per edge end
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
