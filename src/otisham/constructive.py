"""Hamiltonian cycles of bowtie-based swapped networks from per-class
edge tables.

Each supported parameter class carries two per-cluster tables of the
intracluster edges that its cycle leaves unused: the key edges
(``key_edges``, which ``ham-build --emit-key-edges`` prints) and the
completion rows, which name the rest.  So every vertex g:u knows its two
cycle edges: the base edges at u that no row names in cluster g, and its
transpose edge <g,u> -- <u,g> when only one is left.  ``build_ham_cycle``
walks them from 1:1 in one integer step per vertex, checks the walk by the
OTIS(BF) adjacency rule and hashes nothing: it builds no graph and runs no
search.  Rows that leave a vertex without exactly two cycle edges, or a
walk that is not one Hamiltonian cycle, are a table fault.

The walk gives the cycle that the table-seeded search in
``tests/build_reference.py`` finds, byte for byte, since it leaves each
vertex by its first cycle edge in incidence order as the engine read its
forced edges.  The small figures (3,3) and (5,7) have empty key tables:
their completion rows alone name the edges that the search's cycle
leaves unused.

Label arithmetic inside table rows wraps within the cycle that contains
the label: positions 1..c wrap on the left cycle (0 meaning c), positions
c..i wrap on the right cycle.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .topology import bowtie_links, bowtie_pair, otis_bowtie_violation, otis_labels

# Nothing here calls these four.  The traced benchmark run (bench/spans.py)
# wraps each by name on this module, so they stay while it does.
from .engine import decide, propagate
from .graph import is_hamiltonian_cycle
from .topology import otis


class ParamClass(enum.Enum):
    ODD_ODD_3N = "odd-odd-3n"            # left triangle, odd right cycle >= 5
    ODD_ODD_EQUAL = "odd-odd-equal"      # equal odd cycles >= 5
    ODD_ODD_GENERAL = "odd-odd-general"  # odd cycles, 5 <= m < n
    ODD_EVEN_3 = "odd-even-3"            # left triangle, even right cycle
    ODD_EVEN_GENERAL = "odd-even-general"  # odd left >= 5, even right
    SMALL_FIGURE = "small-figure"        # (3,3) and (5,7): empty key table
    EVEN_EVEN = "even-even"              # unsupported (refuted instances)


def classify(m: int, n: int) -> ParamClass:
    """Total classification of bowtie pairs, in either order."""
    m, n = bowtie_pair(m, n)
    if m % 2 == 0 and n % 2 == 0:
        return ParamClass.EVEN_EVEN
    if n % 2 == 0:
        return ParamClass.ODD_EVEN_3 if m == 3 else ParamClass.ODD_EVEN_GENERAL
    if (m, n) in ((3, 3), (5, 7)):
        return ParamClass.SMALL_FIGURE
    if m == 3:
        return ParamClass.ODD_ODD_3N
    if m == n:
        return ParamClass.ODD_ODD_EQUAL
    return ParamClass.ODD_ODD_GENERAL


class KeyEdge(NamedTuple):
    """One table row: intracluster edge (a, b) of cluster ``cluster``, which
    the cycle leaves unused, tagged with the row that produced it."""

    cluster: int
    a: int
    b: int
    tag: str


class KeyEdgeError(ValueError):
    """A table fault: a row names an edge the base graph does not have, or
    the rows do not leave one Hamiltonian cycle."""


class _Rows:
    """Accumulates (cluster, edge, tag) rows with label arithmetic local to
    the cycle containing each label.  Each tag names its row's cluster and
    kind, as in ``cluster 4: cut edges``."""

    def __init__(self, m: int, n: int):
        self.c = m
        self.i = m + n - 1
        self.n = n
        self.out: list[KeyEdge] = []

    def left(self, x: int, k: int = 0) -> int:
        """Label x+k on the left cycle {1..c}, 0 standing for c."""
        return (x + k - 1) % self.c + 1

    def right(self, x: int, k: int = 0) -> int:
        """Label x+k on the right cycle {c..i}."""
        return (x + k - self.c) % self.n + self.c

    def add(self, cluster: int, a: int, b: int, kind: str) -> None:
        self.out.append(KeyEdge(cluster, a, b, f"cluster {cluster}: {kind}"))

    def cut(self, cluster: int, *others: int) -> None:
        """Cut edges (c, x) for each x of ``others``, in order."""
        for x in others:
            self.add(cluster, self.c, x, "cut edges")

    def run(self, cluster: int, start: int, stop: int, kind: str) -> None:
        """Ascending pairs (start, start+1), (start+2, start+3), ...,
        (stop, stop+1); empty when stop < start."""
        for a in range(start, stop + 1, 2):
            self.add(cluster, a, a + 1, kind)

    def flank(self, x: int) -> None:
        """The universal rule in cluster x: delete (x-2, x-1) and
        (x+1, x+2), wrapping inside the cycle that contains x."""
        if x < self.c:
            self.add(x, self.left(x, -2), self.left(x, -1), "flank")
            self.add(x, self.left(x, 1), self.left(x, 2), "flank")
        elif x > self.c:
            self.add(x, self.right(x, -2), self.right(x, -1), "flank")
            self.add(x, self.right(x, 1), self.right(x, 2), "flank")
        # x == c sits on both cycles; the rule is ambiguous there and the
        # cut vertex rows already pin cluster c, so it is skipped.


def _rows_odd_odd_equal(r: _Rows) -> None:
    c, i = r.c, r.i
    # hub clusters 1 and c+1 delete both side runs plus three cut edges
    for g in (1, c + 1):
        r.run(g, 2, c - 1, "left run")
        r.run(g, c + 2, i - 2, "right run")
        r.cut(g, i, c - 1, c + 1 if g == 1 else 1)
    # left clusters: runs spreading away from the diagonal
    for g in range(2, c, 2):
        r.run(g, 2, g - 2, "lower run")
        r.run(g, g + 1, c - 2, "upper run")
        r.cut(g, 1, c + 1)
    for g in range(3, c - 1, 2):
        r.run(g, 1, g - 2, "lower run")
        r.run(g, g + 1, c - 3, "upper run")
        r.cut(g, c - 1, c + 1)
    # right clusters: the mirror image under the two-cycle swap
    for g in range(c + 2, i + 1, 2):
        r.run(g, c + 2, g - 2, "lower run")
        r.run(g, g + 1, i - 1, "upper run")
        r.cut(g, c + 1, 1)
    for g in range(c + 3, i, 2):
        r.run(g, c + 1, g - 2, "lower run")
        r.run(g, g + 1, i - 3, "upper run")
        r.cut(g, i, 1)
    for x in range(1, i + 1):
        r.flank(x)


def _rows_odd_odd_3n(r: _Rows) -> None:
    c, i = r.c, r.i
    r.run(1, c + 2, i - 2, "right run")
    r.cut(1, i, c - 1, c + 1)
    r.cut(2, 1, c + 1)
    r.run(2, 6, i - 3, "right run")
    r.cut(3, 1, c + 1)
    r.cut(c + 1, 1, c - 1, i)
    r.run(c + 1, c + 2, i - 2, "right run")
    r.cut(i - 1, 1, i)
    if i > 9:
        r.run(i - 1, 4, i - 3, "right run")
    r.cut(5, 1)
    for g in range(6, i - 1):
        r.cut(g, 1, c - 1)
    r.cut(i, 1)
    for x in range(1, i + 1):
        r.flank(x)


def _rows_odd_even_3(r: _Rows) -> None:
    i = r.i
    r.cut(1, 2, 4, i)
    r.cut(2, 1, 4)
    r.run(2, 5, i - 1, "right run")
    r.cut(3, 1, 4)
    r.cut(4, 1, 2, i)
    for g in range(5, i):
        r.cut(g, 2, i)
    r.cut(i, 1, 2)
    r.run(i, 4, i - 2, "right run")


def _rows_odd_odd_general(r: _Rows) -> None:
    c, i = r.c, r.i
    r.cut(1, c - 1, c + 1, i)
    r.run(1, 2, c - 1, "left run")
    r.run(1, c + 2, i - 2, "right run")
    r.cut(2, 1, i)
    r.add(2, c - 2, c - 1, "pair")
    r.run(2, c + 5, i - 5, "right run")
    r.add(3, i - 1, i - 2, "pair")
    r.cut(3, c - 1, c + 1)
    r.run(3, c + 5, i - 5, "right run")
    for g in range(4, c - 2):
        r.cut(g, 1, c + 1)
        r.add(g, i - 2, i - 1, "pair")
    r.cut(c - 2, c - 1, c + 1)
    r.add(c - 2, i - 2, i - 1, "pair")
    g = c - 1
    r.cut(g, 1, i)
    r.add(g, 2, 3, "pair")
    r.run(g, c + 4, i - 2, "right run")
    r.cut(c, 1, c + 1)
    g = c + 1
    r.cut(g, 1, c - 1, i)
    r.add(g, c + 2, c + 3, "pair")
    r.add(g, i - 2, i - 1, "pair")
    r.cut(c + 2, c - 1, c + 1)
    r.add(c + 2, i - 1, i, "pair")
    r.cut(c + 3, 1, c + 1)
    r.add(c + 3, i - 1, i, "pair")
    r.cut(c + 4, c - 1, 1)
    r.add(c + 4, i - 1, i, "pair")
    for g in range(c + 5, i - 3):
        r.add(g, 2, 3, "conditional pair")
        r.cut(g, 1, c - 1)
        r.add(g, i, i - 1, "pair")
    r.cut(i - 3, 1, c - 1)
    r.add(i - 3, i - 1, i, "pair")
    g = i - 2
    r.run(g, 3, c - 2, "left run")
    r.cut(g, 1, c + 1)
    r.add(g, i, i - 1, "pair")
    g = i - 1
    r.run(g, 3, c - 2, "left run")
    r.cut(g, 1, i)
    r.run(g, c + 1, i - 3, "right run")
    g = i
    r.add(g, 1, 2, "pair")
    r.cut(g, c - 1, c + 1)
    r.run(g, c + 2, i - 2, "right run")
    for x in range(1, c):
        r.flank(x)


def _rows_odd_even_general(r: _Rows) -> None:
    c, i = r.c, r.i
    r.cut(1, c - 1, c + 1, i)
    r.run(1, 2, c - 1, "left run")
    r.cut(2, 1, c + 1)
    r.add(2, c - 2, c - 1, "pair")
    r.run(2, c + 2, i - 3, "right run")
    r.cut(3, c - 1, c + 1)
    r.run(3, c + 2, i - 3, "right run")
    for g in range(3, c - 2):
        r.add(g, i - 1, i, "conditional pair")
    if 4 < c - 3:
        for g in range(4, c - 2):
            r.cut(g, 1, c + 1)
    r.cut(c - 2, c - 1, c + 1)
    g = c - 1
    r.cut(g, 1, i)
    r.add(g, 2, 3, "pair")
    r.run(g, c + 1, i - 2, "right run")
    r.cut(c, 1, c + 1)
    g = c + 1
    r.cut(g, 1, c - 1, i)
    r.run(g, 2, c - 3, "left run")
    for g in range(c + 2, i - 1):
        r.cut(g, c - 1, i)
        r.add(g, 2, 3, "conditional pair")
    g = i - 1
    r.cut(g, c - 1, i)
    r.run(g, 3, c - 3, "left run")
    g = i
    r.cut(g, 1, c - 1)
    r.run(g, 3, c - 3, "left run")
    r.run(g, c + 1, i - 2, "right run")
    for x in range(1, c):
        r.flank(x)


def _complete_odd_odd_equal(r: _Rows) -> None:
    c, i = r.c, r.i

    def square(a: int, b: int) -> None:
        """Left edge (a, a+1) and right edge (b, b+1): each goes unused in
        both clusters of the other."""
        for g in (a, a + 1):
            r.add(g, b, b + 1, "square")
        for g in (b, b + 1):
            r.add(g, a, a + 1, "square")

    r.cut(c, 1, c + 1)
    for g in range(c + 3, i - 4, 2):
        r.add(g, i - 2, i - 1, "upper run end")
    # left cluster pairs from the first even cluster past the middle, every
    # fourth, alternately crossed with (i-2, i-1) and (i-1, i)
    first = (c + 1) // 2 + (c + 1) // 2 % 2
    for k, g in enumerate(range(first, c - 2, 4)):
        square(g, i - 2 if k % 2 == 0 else i - 1)
    # (c-1, c) crosses the right edges (i-a, i-a+1) for a = top, the largest
    # even number up to (c-3)/2, and every odd a from top-3 down to 1, but
    # a = 3 when the last left pair is (c-5, c-4) crossed with (i-2, i-1),
    # that is c = 11 or 13 (mod 16); the pairs up to c = 13 have their own
    if c == 5:
        tops = []
    elif c <= 9:
        tops = [1]
    elif c <= 13:
        tops = [4]
    else:
        top = (c - 3) // 2 - (c - 3) // 2 % 2
        tops = [a for a in (top, *range(top - 3, 0, -2)) if a != 3 or c % 16 not in (11, 13)]
    for a in tops:
        square(c - 1, i - a)


def _complete_odd_odd_3n(r: _Rows) -> None:
    c, i = r.c, r.i
    if i < 9:  # (3,5): the key edges name every unused edge
        return
    r.add(c, c + 4, c + 5, "pair")
    r.run(c + 2, c + 6, i - 2, "right run")
    for g in range(c + 3, i - 3):
        r.add(g, i - 1, i, "pair")
    for g in (c + 4, c + 5):
        r.add(g, c, c + 1, "pair")
    for g in range(c + 6, i - 1):
        r.add(g, c + 1, c + 2, "pair")
    r.run(i, c + 3, i - 5, "right run")


def _complete_odd_odd_general(r: _Rows) -> None:
    c = r.c
    r.add(2, c + 1, c + 2, "pair")
    if c > 5:  # at c = 5 this is cluster 3's flank
        r.add(c - 2, 1, 2, "pair")
    r.add(c - 1, c + 1, c + 2, "pair")
    r.run(c + 1, 2, c - 3, "left run")
    r.add(c + 2, 1, 2, "pair")


def _complete_odd_even_general(r: _Rows) -> None:
    c = r.c
    if c > 5:  # at c = 5 this is cluster 3's flank
        r.add(c - 2, 1, 2, "pair")
    if c == 7:  # the key table's cut rows skip cluster 4 = c-3 here
        r.cut(4, 1, c + 1)


def _complete_small_figure(r: _Rows) -> None:
    # the edges that the seeded search's cycle leaves unused on each pair
    c, i = r.c, r.i
    if c == 3:  # (3,3): cut edges only
        for g in (1, 3, 4):
            r.cut(g, 2, i)
        r.cut(2, 1, c + 1, i)
        r.cut(i, 1, 2, c + 1)
        return
    # (5,7)
    for g in (1, 2, 3, 5, 6, 7, 8):
        r.cut(g, c - 1, i)
    for g in (2, 3, 6):
        r.add(g, i - 2, i - 1, "pair")
    r.cut(4, 1, c + 1, i)
    r.add(4, c + 2, c + 3, "pair")
    for g in (9, 10):
        r.cut(g, c + 1, i)
    r.cut(i, 1, c - 1, c + 1)
    r.run(i, c + 2, i - 2, "right run")
    for g in (4, 9, 10, i):
        r.add(g, 2, 3, "pair")


def _no_rows(r: _Rows) -> None:
    """An empty table."""


_TABLES = {
    ParamClass.SMALL_FIGURE: _no_rows,  # the completion rows name every unused edge
    ParamClass.ODD_ODD_EQUAL: _rows_odd_odd_equal,
    ParamClass.ODD_ODD_3N: _rows_odd_odd_3n,
    ParamClass.ODD_EVEN_3: _rows_odd_even_3,
    ParamClass.ODD_ODD_GENERAL: _rows_odd_odd_general,
    ParamClass.ODD_EVEN_GENERAL: _rows_odd_even_general,
}

# With the key edges, the completion rows name every intracluster edge the
# cycle leaves unused.  They are kept apart from ``key_edges``, whose rows
# ``ham-build --emit-key-edges`` prints.
_COMPLETIONS = {
    ParamClass.SMALL_FIGURE: _complete_small_figure,
    ParamClass.ODD_ODD_EQUAL: _complete_odd_odd_equal,
    ParamClass.ODD_ODD_3N: _complete_odd_odd_3n,
    ParamClass.ODD_EVEN_3: _no_rows,  # the key edges name every unused edge
    ParamClass.ODD_ODD_GENERAL: _complete_odd_odd_general,
    ParamClass.ODD_EVEN_GENERAL: _complete_odd_even_general,
}


def _checked_rows(m: int, n: int, tables) -> list[KeyEdge]:
    """The rows that the table in ``tables`` writes for the class of (m, n),
    validated against BF(m, n) and deduplicated keeping the first tag."""
    m, n = bowtie_pair(m, n)
    cls = classify(m, n)
    if cls not in tables:
        raise ValueError(f"no key-edge table for class {cls.value}")
    rows = _Rows(m, n)
    tables[cls](rows)
    base = {(a + 1, b + 1) for link in bowtie_links(m, n) for a, b in (link, link[::-1])}
    seen: set[tuple[int, int, int]] = set()
    out: list[KeyEdge] = []
    for ke in rows.out:
        if not 1 <= ke.cluster <= rows.i:
            raise KeyEdgeError(f"{ke.tag}: cluster {ke.cluster} out of range")
        if (ke.a, ke.b) not in base:
            raise KeyEdgeError(f"{ke.tag}: ({ke.a},{ke.b}) is not a base edge")
        key = (ke.cluster, min(ke.a, ke.b), max(ke.a, ke.b))
        if key not in seen:
            seen.add(key)
            out.append(ke)
    return out


def key_edges(m: int, n: int) -> list[KeyEdge]:
    """The table deletions for a supported class, validated against the
    base graph and deduplicated keeping the first provenance tag."""
    return _checked_rows(m, n, _TABLES)


class BuildResult(NamedTuple):
    cycle: tuple[str, ...]
    param_class: ParamClass
    steps: int  # one per cycle vertex


class FailureReport(NamedTuple):
    kind: str  # "unsupported-class", the one failure a build reports
    param_class: ParamClass
    detail: str


UNSUPPORTED_CLASS = "unsupported-class"


def _walk(m: int, n: int, cls: ParamClass) -> list[int]:
    """The cycle that the key and completion rows leave, as OTIS(BF(m, n))
    vertex indices (g:u has index (g-1)*N + u-1 over N base vertices).

    A vertex keeps the base edges that no row names in its cluster, and its
    transpose edge when only one is left; that must make two cycle edges,
    one of them the edge the walk came in by.  The walk starts at 1:1,
    leaves by the first of its two (base edges in ``gen_bowtie``'s link
    order, then the transpose edge) and never steps back, so it reads the
    cycle as the engine did.  A vertex that breaks the rule is a table
    fault."""
    size = m + n - 1
    per = size + 1  # bowtie edges, so row slots per cluster
    slot: dict[tuple[int, int], int] = {}
    incident: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for e, (a, b) in enumerate(bowtie_links(m, n)):
        slot[a + 1, b + 1] = slot[b + 1, a + 1] = e
        incident[a].append((e, b))
        incident[b].append((e, a))
    unused = bytearray(size * per)
    for ke in (*key_edges(m, n), *_checked_rows(m, n, _COMPLETIONS)):
        unused[(ke.cluster - 1) * per + slot[ke.a, ke.b]] = 1

    def fault(k: int, what: str) -> KeyEdgeError:
        g, u = divmod(k, size)
        return KeyEdgeError(f"{cls.value} tables: {g + 1}:{u + 1} {what}")

    order: list[int] = []
    append = order.append
    first = prev = -1
    cur = 0
    for _ in range(size * size):
        append(cur)
        g, u = divmod(cur, size)
        at, row = cur - u, g * per
        ends = [at + w for e, w in incident[u] if not unused[row + e]]
        if len(ends) == 1 and g != u:
            ends.append(u * size + g)
        if len(ends) != 2:
            raise fault(cur, f"keeps {len(ends)} cycle edges")
        if prev not in ends:
            if prev >= 0:
                raise fault(cur, "keeps no edge to the vertex before it")
            first = ends[1]  # 1:1 is left by ends[0], so the walk closes by ends[1]
        prev, cur = cur, ends[ends[0] == prev]
    if cur != 0 or prev != first:
        raise fault(prev, "does not close the walk at 1:1")
    return order


def build_ham_cycle(m: int, n: int):
    """Construct and verify a Hamiltonian cycle of OTIS(bowtie(m, n)).

    Walks the cycle that the class's key and completion rows leave and
    checks it by index arithmetic, with no graph and no search; a table
    fault, the walk's or the check's, raises ``KeyEdgeError``.  Returns a
    BuildResult, or a FailureReport for an even-even pair; never an
    unverified cycle.
    """
    m, n = bowtie_pair(m, n)
    cls = classify(m, n)
    if cls is ParamClass.EVEN_EVEN:
        return FailureReport(
            kind=UNSUPPORTED_CLASS,
            param_class=cls,
            detail="no construction exists for even-even pairs; "
            "(4,4) and (4,6) are proven non-Hamiltonian",
        )
    order = _walk(m, n, cls)
    reason = otis_bowtie_violation(m, n, order)
    if reason is not None:
        raise KeyEdgeError(f"{cls.value} tables: the walk is not a Hamiltonian cycle: {reason}")
    labels = otis_labels([str(v) for v in range(1, m + n)])
    return BuildResult(cycle=tuple(map(labels.__getitem__, order)), param_class=cls, steps=len(order))
