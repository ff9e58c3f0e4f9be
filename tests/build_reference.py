"""The table-seeded search build that ``constructive.build_ham_cycle``
replaced for the five table classes, kept as the reference it is tested
against.

It materialises OTIS(BF(m,n)), seeds every key edge of the class's table
deleted, propagates, and hands the undecided residue to the seeded decider.
Measured on OTIS(BF(m,n)), edges undecided after seeding and propagation,
and the decider's residual search:

  (m,n)    edges   undecided  search nodes  search depth
  (31,30)   5,430    4,269       1,272         1,271
  (81,80)  38,480   35,319      11,322        11,321
  (21,21)   2,542    1,160         350           345
  (81,81)  38,962   19,040       6,204         6,180

About a third of the undecided edges are transpose edges, the rest are
intracluster.  On odd-even pairs the search is a greedy walk: its depth is
its node count less one, and it never backtracks.  On odd-odd-equal pairs
it backtracks a little: 4 nodes beyond such a walk at (21,21), 23 at
(81,81).  The forced set is the cycle, read from 1:1 by the first forced
edge in each vertex's incidence order.

``build_ham_cycle(m, n).cycle`` must equal ``reference_build(m, n).cycle``
on every supported pair; ``steps`` here is the engine's count.  The small
figures (3,3) and (5,7) have no table rows, so their search is the whole
decision; it branches by ``search_reference.min_live_branch_edge``, the
rule their completion rows were read from.

``reference_walk`` is the walk that ``constructive._walk`` replaced: it
applies the vertex rule at every vertex, one loop pass each, and returns
the flat order, where the package's walk takes the runs between two stops
in one step and returns maximal segments.  Split into its maximal runs,
this order must be the package's segments, and the two must fault at the
same vertex with the same message, on every table.
"""

from __future__ import annotations

from typing import NamedTuple

from otisham.constructive import (
    _COMPLETIONS,
    KeyEdgeError,
    ParamClass,
    _table_rows,
    classify,
    key_edges,
)
from otisham.engine import HAMILTONIAN, INCONCLUSIVE, Contradiction, EdgeAssignment, SearchBudget, decide, propagate
from otisham.graph import Graph, is_hamiltonian_cycle
from otisham.topology import bowtie_links, bowtie_pair, gen_bowtie, otis, otis_label

import search_reference


class ReferenceBuild(NamedTuple):
    cycle: tuple[str, ...]
    param_class: ParamClass
    steps: int
    graph: Graph


class ReferenceFailure(NamedTuple):
    kind: str  # "contradiction" or INCONCLUSIVE
    detail: str


def reference_build(m: int, n: int, *, budget: SearchBudget | None = None):
    """A verified ReferenceBuild of OTIS(bowtie(m, n)), or a ReferenceFailure.
    An even-even pair has no table, so ``key_edges`` raises ``ValueError``."""
    m, n = bowtie_pair(m, n)
    cls = classify(m, n)
    graph = otis(gen_bowtie(m, n))

    def contradiction(detail: str) -> ReferenceFailure:
        return ReferenceFailure("contradiction", detail)

    asg = EdgeAssignment.for_graph(graph)
    for ke in key_edges(m, n):
        asg.seed_delete(otis_label(str(ke.cluster), str(ke.a)),
                        otis_label(str(ke.cluster), str(ke.b)))
        if asg.conflict is not None:
            return contradiction(f"seeding {ke.tag} already contradicts: {asg.conflict}")
    result = propagate(asg)
    if isinstance(result, Contradiction):
        return contradiction(repr(result))
    if asg.n_undecided == 0:
        cycle = asg.extract_cycle()
        if not is_hamiltonian_cycle(graph, cycle):
            raise AssertionError("constructed cycle failed verification")
    else:
        if cls is ParamClass.SMALL_FIGURE:
            verdict = search_reference.decide(
                graph, seed=asg, budget=budget, branch_edge=search_reference.min_live_branch_edge
            )
        else:
            verdict = decide(graph, seed=asg, budget=budget)
        if verdict.status == INCONCLUSIVE:
            return ReferenceFailure(INCONCLUSIVE, f"search budget exhausted: {verdict.reason}")
        if verdict.status != HAMILTONIAN:
            return contradiction(f"no completion of the table fixpoint: {verdict.status}")
        cycle = verdict.cycle
    return ReferenceBuild(cycle=cycle, param_class=cls, steps=asg.steps, graph=graph)


def reference_walk(m: int, n: int, cls: ParamClass) -> list[int]:
    """``constructive._walk``'s cycle, or its ``KeyEdgeError``, one vertex
    per loop pass."""
    size = m + n - 1
    per = size + 1
    slot: dict[tuple[int, int], int] = {}
    incident: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for e, (a, b) in enumerate(bowtie_links(m, n)):
        slot[a + 1, b + 1] = slot[b + 1, a + 1] = e
        incident[a].append((e, b))
        incident[b].append((e, a))
    unused = bytearray(size * per)
    for ke in (*key_edges(m, n), *_table_rows(m, n, _COMPLETIONS)):
        unused[(ke.cluster - 1) * per + slot[ke.a, ke.b]] = 1

    def fault(k: int, what: str) -> KeyEdgeError:
        g, u = divmod(k, size)
        return KeyEdgeError(f"{cls.value} tables: {g + 1}:{u + 1} {what}")

    order: list[int] = []
    first = prev = -1
    cur = 0
    for _ in range(size * size):
        order.append(cur)
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
            first = ends[1]
        prev, cur = cur, ends[ends[0] == prev]
    if cur != 0 or prev != first:
        raise fault(prev, "does not close the walk at 1:1")
    return order
