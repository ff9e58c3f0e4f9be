"""Two independent spanning trees from a Hamiltonian cycle.

Removing either edge at a chosen root turns the cycle into a spanning
tree; the two trees route every vertex along opposite arcs, so their
root paths share no interior vertex.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graph import Graph, GraphError


class TreePair(NamedTuple):
    """Two spanning trees as child-to-parent maps rooted at ``root``, each
    the source cycle minus one of the root's two cycle edges."""

    root: str
    parent1: dict[str, str]
    parent2: dict[str, str]


def build_ists(cycle, root: str) -> TreePair:
    """Spanning tree pair: drop (root, successor) for the first tree and
    (predecessor, root) for the second."""
    order = list(cycle)
    if len(order) < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {len(order)}")
    if len(set(order)) < len(order):
        repeated = next(v for v, count in Counter(order).items() if count > 1)
        raise GraphError(f"vertex {repeated!r} appears more than once in the cycle")
    if root not in order:
        raise GraphError(f"root {root!r} does not appear in the cycle")
    k = order.index(root)
    order = order[k:] + order[:k]  # root first
    n = len(order)
    # tree 1: walk against the cycle direction (root adopts its predecessor)
    parent1 = {order[j]: order[(j + 1) % n] for j in range(1, n)}
    # tree 2: walk along the cycle direction
    parent2 = {order[j]: order[j - 1] for j in range(1, n)}
    return TreePair(root, parent1, parent2)


class IndependenceReport(NamedTuple):
    vertex_disjoint: bool
    edge_disjoint: bool
    first_violation: str | None = None


def _preorder(par: list[int], root: int | None) -> list[int]:
    """Vertex indices reachable from ``root`` along child links, in a
    preorder, so that every subtree is one contiguous run.  A vertex whose
    parent chain breaks or loops before the root is left out."""
    children: list[list[int]] = [[] for _ in par]
    for x, p in enumerate(par):
        if p >= 0:
            children[p].append(x)
    order = []
    stack = [] if root is None else [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    return order


def _interior(par: list[int], root: int, v: int) -> set[int]:
    """The vertices strictly between v and the root on v's root path."""
    out = set()
    x = par[v]
    while x != root:
        out.add(x)
        x = par[x]
    return out


def independence_report(pair: TreePair, graph: Graph) -> IndependenceReport:
    """Check that both root paths of every vertex are internally
    vertex-disjoint (and, reported separately, edge-disjoint), and that
    every tree edge is an edge of ``graph``.

    Runs in O(V log V).  Give each tree Euler-tour intervals ``[tin, tout)``
    from a preorder.  v's two root paths share only their ends iff exactly
    two vertices, the root and v, are ancestors-or-self of v in both trees:
    w is one iff the point ``(tin1(v), tin2(v))`` lies in the rectangle
    ``[tin1(w), tout1(w)) x [tin2(w), tout2(w))``.  An edge lies on both
    paths iff v is under its child end in each tree, one more rectangle per
    edge the trees share.  One depth-first walk of the first tree sweeps
    along x: a rectangle is open while its vertex is on the walk's stack,
    and a Fenwick tree over ``tin2`` (range add, point query) counts the
    open rectangles over each point."""
    index, labels = graph.index, graph.labels
    n = graph.n_vertices
    pars = []
    for parent in (pair.parent1, pair.parent2):
        par = [-1] * n
        for child, p in parent.items():
            if not graph.has_edge(child, p):
                return IndependenceReport(False, False, f"tree edge {child}-{p} not in graph")
            par[index[child]] = index[p]
        pars.append(par)
    if pair.root in pair.parent1 or pair.root in pair.parent2:
        return IndependenceReport(False, False, f"root {pair.root} has a parent")
    par1, par2 = pars
    r = index.get(pair.root)
    order1, order2 = _preorder(par1, r), _preorder(par2, r)
    if len(order1) < n or len(order2) < n:
        reached = set(order1) & set(order2)
        v = next(v for v in range(n) if v not in reached)
        return IndependenceReport(False, False, f"no root path for {labels[v]}")

    tin2 = [0] * n
    for t, u in enumerate(order2):
        tin2[u] = t
    tout2 = [t + 1 for t in tin2]  # subtree sizes added up from the leaves
    for u in reversed(order2):
        if u != r:
            tout2[par2[u]] += tout2[u] - tin2[u]
    # shared[x]: the T2 child end of the edge from x to its T1 parent, or -1
    # where T2 does not have that edge
    shared = [-1] * n
    for x, p in enumerate(par1):
        if x != r:
            shared[x] = x if par2[x] == p else p if par2[p] == x else -1

    # a vertex count is at most n, so shared edges are counted in units of w_edge
    w_edge = n + 1
    fen = [0] * (n + 1)

    def span(lo: int, hi: int, w: int) -> None:
        """Add w at every position in [lo, hi)."""
        i = lo + 1
        while i <= n:
            fen[i] += w
            i += i & -i
        i = hi + 1
        while i <= n:
            fen[i] -= w
            i += i & -i

    def toggle(u: int, sign: int) -> None:
        """Open (sign 1) or close (sign -1) the rectangles of vertex u."""
        span(tin2[u], tout2[u], sign)
        c = shared[u]
        if c >= 0:
            span(tin2[c], tout2[c], sign * w_edge)

    count = [0] * n
    stack: list[int] = []
    for v in order1:
        if v != r:
            while stack[-1] != par1[v]:
                toggle(stack.pop(), -1)
        toggle(v, 1)
        stack.append(v)
        i, s = tin2[v] + 1, 0
        while i:
            s += fen[i]
            i &= i - 1
        count[v] = s

    vertex_ok = edge_ok = True
    violation = None
    for v in range(n):
        if v == r or count[v] == 2:
            continue
        if count[v] >= w_edge:
            edge_ok = False
        if count[v] % w_edge != 2:
            vertex_ok = False
            if violation is None:
                common = _interior(par1, r, v) & _interior(par2, r, v)
                violation = f"paths to {labels[v]} share {min(labels[x] for x in common)}"
    return IndependenceReport(vertex_ok, edge_ok, violation)
