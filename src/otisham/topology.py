"""Generators: bowtie and wrapped-butterfly base graphs, standard fixtures,
and the OTIS (swapped network) composition operator.

``bowtie_pair`` checks and orders every bowtie pair.  OTIS vertex ``"g:u"``
has cluster address ``g`` and processor address ``u``, both base-graph
labels; over an N-vertex base it has index g*N + u.  Over BF(m,n), whose
label v has index v - 1, ``otis_bowtie_violation`` and ``otis_bowtie_hash``
check a cycle and hash the network by that arithmetic, with no graph.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

from .graph import Graph, GraphError

# The most edges that a command may build or walk.  OTIS(BF(1001, 1000)),
# the largest network in use, has 6,001,000.
MAX_EDGES = 1 << 23


def _check_size(what: str, edges: int) -> None:
    """Refuse ``what``, a graph of ``edges`` edges, before anything is built
    for it, when that is over ``MAX_EDGES``."""
    if edges > MAX_EDGES:
        raise GraphError(f"{what} is over the size limit of {MAX_EDGES} edges")


def bowtie_pair(m: int, n: int) -> tuple[int, int]:
    """The bowtie pair (m, n) in canonical order, after checking both cycle
    lengths are at least 3 and OTIS(BF(m, n)) within the size limit (the
    errors name the pair as given).

    ``m`` is the left cycle length (labels 1..c, c = m), ``n`` the right
    cycle length (labels c..i, i = m + n - 1).  Pairs are ordered so that
    m <= n when both sides share parity, and the odd side is the left
    cycle when parities differ.
    """
    if m < 3 or n < 3:
        raise GraphError(f"cycle lengths must be >= 3, got ({m}, {n})")
    size = m + n - 1  # N base vertices: N(N+1) cluster edges, N(N-1)/2 transpose edges
    _check_size(f"OTIS(BF({m}, {n}))", size * (3 * size + 1) // 2)
    if m % 2 == n % 2:
        return min(m, n), max(m, n)
    return (n, m) if n % 2 else (m, n)  # odd side goes left


def bowtie_links(m: int, n: int) -> list[tuple[int, int]]:
    """The edges of BF(m, n) as vertex index pairs, in the order
    ``gen_bowtie`` links them: round the left cycle 1-2-...-c-1, then round
    the right cycle c-(c+1)-...-i-c."""
    m, n = bowtie_pair(m, n)
    c, i = m, m + n - 1
    return ([(v, v + 1) for v in range(c - 1)] + [(c - 1, 0)]
            + [(v, v + 1) for v in range(c - 1, i - 1)] + [(i - 1, c - 1)])


def gen_bowtie(m: int, n: int) -> Graph:
    """Two cycles C_m, C_n sharing the single cut vertex c = m.

    Vertices 1..i with i = m + n - 1; the left cycle is 1-2-...-c-1 and the
    right cycle c-(c+1)-...-i-c.  Vertex v has index v - 1.
    """
    m, n = bowtie_pair(m, n)
    g = Graph()
    for v in range(1, m + n):
        g.add_vertex(str(v))
    for a, b in bowtie_links(m, n):
        g.link(a, b)
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
    # 2*dim*2**dim edges; a shift past the limit's bit length is over it anyway
    _check_size(f"butterfly of dimension {dim}", 2 * dim << min(dim, MAX_EDGES.bit_length()))
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


def otis_labels(base: list[str]) -> list[str]:
    """The label of every OTIS vertex over base labels ``base``, by index."""
    return [f"{cluster}:{processor}" for cluster in base for processor in base]


def otis(base: Graph) -> Graph:
    """Swapped network over ``base``: one cluster copy of the base per base
    vertex, plus the transpose edge <g,u> -- <u,g> for every g != u.

    Over an N-vertex base, OTIS vertex <g,u> gets index g*N + u, so the
    edges are index arithmetic and each label is formatted once.  A network
    over ``MAX_EDGES`` is refused before anything is built for it."""
    size = base.n_vertices
    if size < 2:
        raise GraphError("OTIS base needs at least 2 vertices")
    _check_size(f"OTIS of a {size}-vertex base", size * base.n_edges + size * (size - 1) // 2)
    g = Graph()
    # link stores these, the ints ``index`` holds, not a fresh int per edge end
    ids = [g.add_vertex(label) for label in otis_labels(base.labels)]
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
    _check_size(f"cycle of {k} vertices", k)
    return Graph.from_edges((str(v), str(v % k + 1)) for v in range(1, k + 1))


def gen_path(k: int) -> Graph:
    if k < 1:
        raise GraphError(f"path needs k >= 1, got {k}")
    _check_size(f"path of {k} vertices", k - 1)
    labels = [str(v) for v in range(1, k + 1)]
    return Graph.from_edges(zip(labels, labels[1:]), vertices=labels)


def gen_complete(k: int) -> Graph:
    if k < 3:
        raise GraphError(f"complete graph needs k >= 3, got {k}")
    _check_size(f"complete graph of {k} vertices", k * (k - 1) // 2)
    labels = [str(v) for v in range(1, k + 1)]
    return Graph.from_edges(combinations(labels, 2), vertices=labels)


def otis_bowtie_violation(m: int, n: int, segments) -> str | None:
    """``cycle_violation`` of a cycle on OTIS(BF(m, n)) given as
    ``segments``, (first, last) pairs that stand for first, first +- 1, ...,
    last: the same checks in the same order with the same reasons as on
    those indices, in O(S log S) for S segments.  Disjoint segments sorted
    by low end are sorted by high end too, so two overlap, a repeat, just
    where a sorted low is not past the sorted high before it.  A step by +1
    or -1 in one cluster is a bowtie edge, u to u+1, and one between
    clusters never is; so, in walk order, a segment that leaves its cluster
    names its first crossing, and each junction, the closing one last, must
    be an edge."""
    size = m + n - 1
    total = size * size
    lows = [first if first < last else last for first, last in segments]
    highs = [last if first < last else first for first, last in segments]
    if sum(highs) - sum(lows) + len(lows) != total:
        return "length-mismatch"
    lows.sort()
    highs.sort()
    if any(low <= high for low, high in zip(lows[1:], highs)):
        return "duplicate-vertex"
    if lows[0] < 0 or highs[-1] >= total:
        return "unknown-vertex"
    base = {a * size + b for link in bowtie_links(m, n) for a, b in (link, link[::-1])}

    def step(a: int, b: int) -> str:
        ga, ua = divmod(a, size)
        gb, ub = divmod(b, size)
        return f"non-adjacent-step:{ga + 1}:{ua + 1}-{gb + 1}:{ub + 1}"

    firsts = [first for first, _ in segments]
    for (first, last), after in zip(segments, [*firsts[1:], firsts[0]]):
        g, u = divmod(last, size)
        if first // size != g:
            edge = (first // size + (first < last)) * size  # the cluster boundary it crosses first
            return step(edge - 1, edge) if first < last else step(edge, edge - 1)
        h, w = divmod(after, size)
        if not (u * size + w in base if g == h else g == w and h == u):
            return step(last, after)
    return None


def otis_bowtie_hash(m: int, n: int) -> str:
    """``graph_hash(otis(gen_bowtie(m, n)))`` from (m, n) alone.

    Label g:u sorts by g's label with ":" appended, then by u's label, since
    ":" sorts after every digit.  So the vertices go cluster by cluster, and
    each vertex's edges to higher labels follow it: first its cluster edges,
    by the other processor's label, then its transpose edge if <u,g> sorts
    after <g,u>.  Each cluster's text is one template, written once with
    stand-ins for the two labels that vary, and goes to the hash in one
    update, so memory stays O(N) for N base vertices."""
    size = m + n - 1
    names = [str(v) for v in range(1, size + 1)]
    procs = sorted(range(size), key=names.__getitem__)
    clusters = sorted(range(size), key=lambda g: names[g] + ":")
    rank = [0] * size
    for r, g in enumerate(clusters):
        rank[g] = r
    up: list[list[str]] = [[] for _ in range(size)]
    for link in bowtie_links(m, n):
        a, b = sorted(link, key=names.__getitem__)
        up[a].append(names[b])
    # "\0" stands for this cluster's "g:" and "\1" for its label g
    plain = ["".join(f"e\0{names[u]} \0{w}" for w in sorted(up[u])) for u in range(size)]
    crossed = [text + f"e\0{names[u]} {names[u]}:\1" for u, text in enumerate(plain)]
    h = hashlib.sha256()
    vertices = "".join("v\0" + names[u] for u in procs)
    for g in clusters:
        h.update(vertices.replace("\0", names[g] + ":").encode())
    for g in clusters:
        r = rank[g]
        text = "".join([crossed[u] if rank[u] > r else plain[u] for u in procs])
        h.update(text.replace("\0", names[g] + ":").replace("\1", names[g]).encode())
    return h.hexdigest()
