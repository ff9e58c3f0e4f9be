"""Table-driven Hamiltonian cycle construction for bowtie-based swapped
networks.

Each supported parameter class carries a per-cluster table of intracluster
edges that can never lie on a Hamiltonian cycle.  Deleting them and
propagating leaves many edges undecided (most of them on odd-even pairs,
nearly half on odd-odd-equal ones), and the seeded complete decider
settles that residue.  Measured on OTIS(BF(m,n)), edges undecided after
seeding and propagation, and the decider's residual search:

  (m,n)    edges   undecided  search nodes  search depth
  (31,30)   5,430    4,269       1,272         1,271
  (81,80)  38,480   35,319      11,322        11,321
  (21,21)   2,542    1,160         350           345
  (81,81)  38,962   19,040       6,204         6,180

About a third of the undecided edges are transpose edges, the rest are
intracluster.  On odd-even pairs the search is a greedy walk: its depth is
its node count less one, and it never backtracks.  On odd-odd-equal pairs
it backtracks a little: 4 nodes beyond such a walk at (21,21), 23 at
(81,81).  The measured cost stays linear in the vertex count.  The forced
set is the cycle.
The small figures (3,3) and (5,7) take the same path with an empty table,
so the decider does all of their work.

Label arithmetic inside table rows wraps within the cycle that contains
the label: positions 1..c wrap on the left cycle (0 meaning c), positions
c..i wrap on the right cycle.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .engine import INCONCLUSIVE, Contradiction, EdgeAssignment, SearchBudget, decide, propagate
from .graph import Graph, is_hamiltonian_cycle
from .topology import BowtieParams, gen_bowtie, otis, otis_label


class ParamClass(enum.Enum):
    ODD_ODD_3N = "odd-odd-3n"            # left triangle, odd right cycle >= 5
    ODD_ODD_EQUAL = "odd-odd-equal"      # equal odd cycles >= 5
    ODD_ODD_GENERAL = "odd-odd-general"  # odd cycles, 5 <= m < n
    ODD_EVEN_3 = "odd-even-3"            # left triangle, even right cycle
    ODD_EVEN_GENERAL = "odd-even-general"  # odd left >= 5, even right
    SMALL_FIGURE = "small-figure"        # (3,3) and (5,7): empty table
    EVEN_EVEN = "even-even"              # unsupported (refuted instances)


def classify(m: int, n: int) -> ParamClass:
    """Total classification of normalized bowtie parameters."""
    p = BowtieParams.normalized(m, n)
    m, n = p.m, p.n
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
    """One seeded deletion: intracluster edge (a, b) of cluster ``cluster``,
    tagged with the table row that produced it."""

    cluster: int
    a: int
    b: int
    tag: str


class KeyEdgeError(ValueError):
    """A table row produced an edge the graph does not have."""


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


def _rows_small_figure(r: _Rows) -> None:
    """No rows: the decider builds (3,3) and (5,7) from the bare fixpoint."""


_TABLES = {
    ParamClass.SMALL_FIGURE: _rows_small_figure,
    ParamClass.ODD_ODD_EQUAL: _rows_odd_odd_equal,
    ParamClass.ODD_ODD_3N: _rows_odd_odd_3n,
    ParamClass.ODD_EVEN_3: _rows_odd_even_3,
    ParamClass.ODD_ODD_GENERAL: _rows_odd_odd_general,
    ParamClass.ODD_EVEN_GENERAL: _rows_odd_even_general,
}


def key_edges(m: int, n: int) -> list[KeyEdge]:
    """The table deletions for a supported class, validated against the
    base graph and deduplicated keeping the first provenance tag."""
    p = BowtieParams.normalized(m, n)
    cls = classify(p.m, p.n)
    if cls not in _TABLES:
        raise ValueError(f"no key-edge table for class {cls.value}")
    rows = _Rows(p.m, p.n)
    _TABLES[cls](rows)
    base = gen_bowtie(p.m, p.n)
    seen: set[tuple[int, int, int]] = set()
    out: list[KeyEdge] = []
    for ke in rows.out:
        if not 1 <= ke.cluster <= p.last_vertex:
            raise KeyEdgeError(f"{ke.tag}: cluster {ke.cluster} out of range")
        if not base.has_edge(str(ke.a), str(ke.b)):
            raise KeyEdgeError(f"{ke.tag}: ({ke.a},{ke.b}) is not a base edge")
        key = (ke.cluster, min(ke.a, ke.b), max(ke.a, ke.b))
        if key not in seen:
            seen.add(key)
            out.append(ke)
    return out


class BuildResult(NamedTuple):
    cycle: tuple[str, ...]
    param_class: ParamClass
    steps: int
    graph: Graph


class FailureReport(NamedTuple):
    kind: str  # "unsupported-class" | "contradiction" | "inconclusive" (budget cut)
    param_class: ParamClass
    detail: str


UNSUPPORTED_CLASS = "unsupported-class"


def build_ham_cycle(m: int, n: int, *, budget: SearchBudget | None = None):
    """Construct and verify a Hamiltonian cycle of OTIS(bowtie(m, n)).

    Seeds every key edge of the class's table deleted, propagates, and
    hands any undecided residue to the seeded decider, which verifies the
    cycle it returns.  Returns a BuildResult or a FailureReport; never an
    unverified cycle.
    """
    p = BowtieParams.normalized(m, n)
    cls = classify(p.m, p.n)
    if cls is ParamClass.EVEN_EVEN:
        return FailureReport(
            kind=UNSUPPORTED_CLASS,
            param_class=cls,
            detail="no construction exists for even-even pairs; "
            "(4,4) and (4,6) are proven non-Hamiltonian",
        )
    graph = otis(gen_bowtie(p.m, p.n))

    def contradiction(detail: str) -> FailureReport:
        return FailureReport("contradiction", cls, detail)

    asg = EdgeAssignment.for_graph(graph)
    for ke in key_edges(p.m, p.n):
        asg.seed_delete(otis_label(str(ke.cluster), str(ke.a)),
                        otis_label(str(ke.cluster), str(ke.b)))
        if asg.conflict is not None:
            return contradiction(f"seeding {ke.tag} already contradicts: {asg.conflict}")
    result = propagate(asg)
    if isinstance(result, Contradiction):
        return contradiction(str(result))
    if asg.n_undecided == 0:
        cycle = asg.extract_cycle()
        if not is_hamiltonian_cycle(graph, cycle):
            raise AssertionError("constructed cycle failed verification")
    else:
        # An edge stays open at the fixpoint only when both of its ends
        # keep three or more live edges.  The seeded decider settles them,
        # mostly by a walk that never backtracks (module docstring).  With
        # the small figures' empty table it does the whole search.
        verdict = decide(graph, seed=asg, budget=budget)
        if verdict.status == INCONCLUSIVE:
            return FailureReport(INCONCLUSIVE, cls, f"search budget exhausted: {verdict.reason}")
        if not verdict.is_hamiltonian:
            return contradiction(f"no completion of the table fixpoint: {verdict.status}")
        cycle = verdict.cycle
    return BuildResult(cycle=cycle, param_class=cls, steps=asg.steps, graph=graph)
