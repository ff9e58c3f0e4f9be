"""Table-driven Hamiltonian cycle construction for bowtie-based swapped
networks.

Each supported parameter class carries a per-cluster table of intracluster
edges that can never lie on a Hamiltonian cycle.  Deleting them and
propagating pins almost everything; transpose edges whose endpoints both
keep three live edges are undecidable by local rules, so the seeded
complete decider settles that residue (a few shallow branches -- measured
cost stays linear in the vertex count).  The forced set is the cycle.
The small figures (3,3) and (5,7) take the same path with an empty table,
so the decider does all of their work.

Label arithmetic inside table rows wraps within the cycle that contains
the label: positions 1..c wrap on the left cycle (0 meaning c), positions
c..i wrap on the right cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .engine import Contradiction, EdgeAssignment, SearchBudget, decide, propagate
from .graph import Graph, HamCycle, is_hamiltonian_cycle
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


@dataclass(frozen=True)
class KeyEdge:
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
    the cycle containing each label."""

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

    def add(self, cluster: int, a: int, b: int, tag: str) -> None:
        self.out.append(KeyEdge(cluster, a, b, tag))

    def run(self, cluster: int, start: int, stop: int, tag: str) -> None:
        """Ascending pairs (start, start+1), (start+2, start+3), ...,
        (stop, stop+1); empty when stop < start."""
        for a in range(start, stop + 1, 2):
            self.add(cluster, a, a + 1, tag)

    def flank(self, cluster: int, x: int, tag: str) -> None:
        """The universal rule: delete (x-2, x-1) and (x+1, x+2), wrapping
        inside the cycle that contains x."""
        if x < self.c:
            self.add(cluster, self.left(x, -2), self.left(x, -1), tag)
            self.add(cluster, self.left(x, 1), self.left(x, 2), tag)
        elif x > self.c:
            self.add(cluster, self.right(x, -2), self.right(x, -1), tag)
            self.add(cluster, self.right(x, 1), self.right(x, 2), tag)
        # x == c sits on both cycles; the rule is ambiguous there and the
        # cut vertex rows already pin cluster c, so it is skipped.


def _rows_odd_odd_equal(r: _Rows) -> None:
    c, i = r.c, r.i
    # hub clusters 1 and c+1 delete both side runs plus three cut edges
    for g in (1, c + 1):
        r.run(g, 2, c - 1, f"cluster {g}: left run")
        r.run(g, c + 2, i - 2, f"cluster {g}: right run")
        r.add(g, c, i, f"cluster {g}: cut edges")
        r.add(g, c, c - 1, f"cluster {g}: cut edges")
        r.add(g, c, c + 1 if g == 1 else 1, f"cluster {g}: cut edges")
    # left clusters: runs spreading away from the diagonal
    for g in range(2, c, 2):
        r.run(g, 2, g - 2, f"cluster {g}: lower run")
        r.run(g, g + 1, c - 2, f"cluster {g}: upper run")
        r.add(g, c, 1, f"cluster {g}: cut edges")
        r.add(g, c, c + 1, f"cluster {g}: cut edges")
    for g in range(3, c - 1, 2):
        r.run(g, 1, g - 2, f"cluster {g}: lower run")
        r.run(g, g + 1, c - 3, f"cluster {g}: upper run")
        r.add(g, c, c - 1, f"cluster {g}: cut edges")
        r.add(g, c, c + 1, f"cluster {g}: cut edges")
    # right clusters: the mirror image under the two-cycle swap
    for g in range(c + 2, i + 1, 2):
        r.run(g, c + 2, g - 2, f"cluster {g}: lower run")
        r.run(g, g + 1, i - 1, f"cluster {g}: upper run")
        r.add(g, c, c + 1, f"cluster {g}: cut edges")
        r.add(g, c, 1, f"cluster {g}: cut edges")
    for g in range(c + 3, i, 2):
        r.run(g, c + 1, g - 2, f"cluster {g}: lower run")
        r.run(g, g + 1, i - 3, f"cluster {g}: upper run")
        r.add(g, c, i, f"cluster {g}: cut edges")
        r.add(g, c, 1, f"cluster {g}: cut edges")
    for x in range(1, i + 1):
        r.flank(x, x, f"cluster {x}: flank")


def _rows_odd_odd_3n(r: _Rows) -> None:
    c, i = r.c, r.i
    r.run(1, c + 2, i - 2, "cluster 1: right run")
    r.add(1, c, i, "cluster 1: cut edges")
    r.add(1, c, c - 1, "cluster 1: cut edges")
    r.add(1, c, c + 1, "cluster 1: cut edges")
    r.add(2, c, 1, "cluster 2: cut edges")
    r.add(2, c, c + 1, "cluster 2: cut edges")
    if i > 7:
        r.run(2, 6, i - 3, "cluster 2: right run")
    r.add(3, c, 1, "cluster 3: cut edges")
    r.add(3, c, c + 1, "cluster 3: cut edges")
    g = c + 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.run(g, c + 2, i - 2, f"cluster {g}: right run")
    g = i - 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    if i > 9:
        r.run(g, 4, i - 3, f"cluster {g}: right run")
    r.add(5, c, 1, "cluster 5: cut edges")
    for g in range(6, i - 1):
        r.add(g, c, 1, f"cluster {g}: cut edges")
        r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(i, c, 1, f"cluster {i}: cut edges")
    for x in range(1, i + 1):
        r.flank(x, x, f"cluster {x}: flank")


def _rows_odd_even_3(r: _Rows) -> None:
    i = r.i
    r.add(1, 3, 2, "cluster 1: cut edges")
    r.add(1, 3, 4, "cluster 1: cut edges")
    r.add(1, 3, i, "cluster 1: cut edges")
    r.add(2, 3, 1, "cluster 2: cut edges")
    r.add(2, 3, 4, "cluster 2: cut edges")
    r.run(2, 5, i - 1, "cluster 2: right run")
    r.add(3, 3, 1, "cluster 3: cut edges")
    r.add(3, 3, 4, "cluster 3: cut edges")
    r.add(4, 3, 1, "cluster 4: cut edges")
    r.add(4, 3, 2, "cluster 4: cut edges")
    r.add(4, 3, i, "cluster 4: cut edges")
    for g in range(5, i):
        r.add(g, 3, 2, f"cluster {g}: cut edges")
        r.add(g, 3, i, f"cluster {g}: cut edges")
    r.add(i, 3, 1, f"cluster {i}: cut edges")
    r.add(i, 3, 2, f"cluster {i}: cut edges")
    r.run(i, 4, i - 2, f"cluster {i}: right run")


def _rows_odd_odd_general(r: _Rows) -> None:
    c, i = r.c, r.i
    r.add(1, c, c - 1, "cluster 1: cut edges")
    r.add(1, c, c + 1, "cluster 1: cut edges")
    r.add(1, c, i, "cluster 1: cut edges")
    r.run(1, 2, c - 1, "cluster 1: left run")
    r.run(1, c + 2, i - 2, "cluster 1: right run")
    r.add(2, c, 1, "cluster 2: cut edges")
    r.add(2, c, i, "cluster 2: cut edges")
    r.add(2, c - 2, c - 1, "cluster 2: pair")
    if i - 5 >= c + 5:
        r.run(2, c + 5, i - 5, "cluster 2: right run")
    r.add(3, i - 1, i - 2, "cluster 3: pair")
    r.add(3, c, c - 1, "cluster 3: cut edges")
    r.add(3, c, c + 1, "cluster 3: cut edges")
    if i - 5 >= c + 5:
        r.run(3, c + 5, i - 5, "cluster 3: right run")
    for g in range(4, c - 2):
        r.add(g, c, 1, f"cluster {g}: cut edges")
        r.add(g, c, c + 1, f"cluster {g}: cut edges")
        r.add(g, i - 2, i - 1, f"cluster {g}: pair")
    g = c - 2
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    r.add(g, i - 2, i - 1, f"cluster {g}: pair")
    g = c - 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.add(g, 2, 3, f"cluster {g}: pair")
    r.run(g, c + 4, i - 2, f"cluster {g}: right run")
    r.add(c, c, 1, f"cluster {c}: cut edges")
    r.add(c, c, c + 1, f"cluster {c}: cut edges")
    g = c + 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.add(g, c + 2, c + 3, f"cluster {g}: pair")
    r.add(g, i - 2, i - 1, f"cluster {g}: pair")
    g = c + 2
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    r.add(g, i - 1, i, f"cluster {g}: pair")
    g = c + 3
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    r.add(g, i - 1, i, f"cluster {g}: pair")
    g = c + 4
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, i - 1, i, f"cluster {g}: pair")
    for g in range(c + 5, i - 3):
        if i - 5 >= c + 5:
            r.add(g, 2, 3, f"cluster {g}: conditional pair")
        r.add(g, c, 1, f"cluster {g}: cut edges")
        r.add(g, c, c - 1, f"cluster {g}: cut edges")
        r.add(g, i, i - 1, f"cluster {g}: pair")
    g = i - 3
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, i - 1, i, f"cluster {g}: pair")
    g = i - 2
    r.run(g, 3, c - 2, f"cluster {g}: left run")
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    r.add(g, i, i - 1, f"cluster {g}: pair")
    g = i - 1
    r.run(g, 3, c - 2, f"cluster {g}: left run")
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.run(g, c + 1, i - 3, f"cluster {g}: right run")
    g = i
    r.add(g, 1, 2, f"cluster {g}: pair")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    r.run(g, c + 2, i - 2, f"cluster {g}: right run")
    for x in range(1, c):
        r.flank(x, x, f"cluster {x}: flank")


def _rows_odd_even_general(r: _Rows) -> None:
    c, i = r.c, r.i
    r.add(1, c, c - 1, "cluster 1: cut edges")
    r.add(1, c, c + 1, "cluster 1: cut edges")
    r.add(1, c, i, "cluster 1: cut edges")
    r.run(1, 2, c - 1, "cluster 1: left run")
    r.add(2, c, 1, "cluster 2: cut edges")
    r.add(2, c, c + 1, "cluster 2: cut edges")
    r.add(2, c - 2, c - 1, "cluster 2: pair")
    if i >= c + 3:
        r.run(2, c + 2, i - 3, "cluster 2: right run")
    r.add(3, c, c - 1, "cluster 3: cut edges")
    r.add(3, c, c + 1, "cluster 3: cut edges")
    if i >= c + 3:
        r.run(3, c + 2, i - 3, "cluster 3: right run")
    if 4 < c - 1:
        for g in range(3, c - 2):
            r.add(g, i - 1, i, f"cluster {g}: conditional pair")
    if 4 < c - 3:
        for g in range(4, c - 2):
            r.add(g, c, 1, f"cluster {g}: cut edges")
            r.add(g, c, c + 1, f"cluster {g}: cut edges")
    g = c - 2
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, c + 1, f"cluster {g}: cut edges")
    g = c - 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.add(g, 2, 3, f"cluster {g}: pair")
    r.run(g, c + 1, i - 2, f"cluster {g}: right run")
    r.add(c, c, 1, f"cluster {c}: cut edges")
    r.add(c, c, c + 1, f"cluster {c}: cut edges")
    g = c + 1
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    r.run(g, 2, c - 3, f"cluster {g}: left run")
    for g in range(c + 2, i - 1):
        r.add(g, c, c - 1, f"cluster {g}: cut edges")
        r.add(g, c, i, f"cluster {g}: cut edges")
        if c + 3 < i:
            r.add(g, 2, 3, f"cluster {g}: conditional pair")
    g = i - 1
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.add(g, c, i, f"cluster {g}: cut edges")
    if 4 < c - 1:
        r.run(g, 3, c - 3, f"cluster {g}: left run")
    g = i
    r.add(g, c, 1, f"cluster {g}: cut edges")
    r.add(g, c, c - 1, f"cluster {g}: cut edges")
    r.run(g, 3, c - 3, f"cluster {g}: left run")
    r.run(g, c + 1, i - 2, f"cluster {g}: right run")
    for x in range(1, c):
        r.flank(x, x, f"cluster {x}: flank")


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


@dataclass(frozen=True)
class BuildResult:
    cycle: HamCycle
    param_class: ParamClass
    steps: int
    graph: Graph


@dataclass(frozen=True)
class FailureReport:
    kind: str  # "unsupported-class" | "contradiction"
    param_class: ParamClass
    detail: str
    contradiction: Contradiction | None = None


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

    def contradiction(detail: str, witness: Contradiction | None = None) -> FailureReport:
        return FailureReport("contradiction", cls, detail, witness)

    asg = EdgeAssignment.for_graph(graph)
    for ke in key_edges(p.m, p.n):
        asg.seed_delete(otis_label(str(ke.cluster), str(ke.a)),
                        otis_label(str(ke.cluster), str(ke.b)))
        if asg.conflict is not None:
            return contradiction(f"seeding {ke.tag} already contradicts: {asg.conflict}", asg.conflict)
    result = propagate(asg)
    if isinstance(result, Contradiction):
        return contradiction(str(result), result)
    steps = asg.steps
    if asg.n_undecided == 0:
        cycle = asg.extract_cycle()
        if not is_hamiltonian_cycle(graph, cycle):
            raise AssertionError("constructed cycle failed verification")
    else:
        # The tables pin each cluster locally, but transpose edges whose
        # endpoints both keep three live edges stay open at the fixpoint.
        # The seeded decider settles them; propagation keeps the residual
        # search shallow.  With the small figures' empty table it does the
        # whole search.
        verdict = decide(graph, seed=asg, budget=budget)
        if not verdict.is_hamiltonian:
            return contradiction(f"no completion of the table fixpoint: {verdict.status}")
        cycle = verdict.cycle
        steps += verdict.steps
    return BuildResult(cycle=cycle, param_class=cls, steps=steps, graph=graph)
