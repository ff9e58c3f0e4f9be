"""Two independent spanning trees from a Hamiltonian cycle.

Removing either edge at a chosen root turns the cycle into a spanning
tree; the two trees route every vertex along opposite arcs, so their
root paths share no interior vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, HamCycle


@dataclass(frozen=True)
class TreePair:
    """Two spanning trees as child-to-parent maps rooted at ``root``.

    Each tree is the source cycle minus one of the root's two cycle
    edges; the omitted edges record which."""

    root: str
    parent1: dict[str, str]
    parent2: dict[str, str]
    omitted_edge_1: tuple[str, str]
    omitted_edge_2: tuple[str, str]


def build_ists(cycle, root: str) -> TreePair:
    """Spanning tree pair: drop (root, successor) for the first tree and
    (predecessor, root) for the second."""
    order = list(cycle.order if isinstance(cycle, HamCycle) else cycle)
    if root not in order:
        raise GraphError(f"root {root!r} does not appear in the cycle")
    k = order.index(root)
    order = order[k:] + order[:k]  # root first
    n = len(order)
    succ, pred = order[1], order[-1]
    # tree 1: walk against the cycle direction (root adopts its predecessor)
    parent1 = {order[j]: order[(j + 1) % n] for j in range(1, n)}
    # tree 2: walk along the cycle direction
    parent2 = {order[j]: order[j - 1] for j in range(1, n)}
    return TreePair(
        root=root,
        parent1=parent1,
        parent2=parent2,
        omitted_edge_1=(root, succ),
        omitted_edge_2=(pred, root),
    )


def _root_path(parent: dict[str, str], root: str, v: str) -> list[str] | None:
    """Vertices from v up to the root, or None on a broken parent chain."""
    path = [v]
    seen = {v}
    while path[-1] != root:
        nxt = parent.get(path[-1])
        if nxt is None or nxt in seen:
            return None
        path.append(nxt)
        seen.add(nxt)
    return path


@dataclass(frozen=True)
class IndependenceReport:
    vertex_disjoint: bool
    edge_disjoint: bool
    first_violation: str | None = None


def independence_report(pair: TreePair, graph: Graph) -> IndependenceReport:
    """Check that both root paths of every vertex are internally
    vertex-disjoint (and, reported separately, edge-disjoint), and that
    every tree edge is an edge of ``graph``."""
    for parent in (pair.parent1, pair.parent2):
        for child, par in parent.items():
            if not graph.has_edge(child, par):
                return IndependenceReport(False, False, f"tree edge {child}-{par} not in graph")
    vertex_ok = True
    edge_ok = True
    violation = None
    for v in graph.vertices():
        if v == pair.root:
            continue
        p1 = _root_path(pair.parent1, pair.root, v)
        p2 = _root_path(pair.parent2, pair.root, v)
        if p1 is None or p2 is None:
            return IndependenceReport(False, False, f"no root path for {v}")
        interior1 = set(p1[1:-1])
        interior2 = set(p2[1:-1])
        if interior1 & interior2:
            vertex_ok = False
            violation = violation or f"paths to {v} share {sorted(interior1 & interior2)[0]}"
        edges1 = {tuple(sorted((p1[j], p1[j + 1]))) for j in range(len(p1) - 1)}
        edges2 = {tuple(sorted((p2[j], p2[j + 1]))) for j in range(len(p2) - 1)}
        if edges1 & edges2:
            edge_ok = False
    return IndependenceReport(vertex_ok, edge_ok, violation)


def tree_edges(parent: dict[str, str]) -> set[tuple[str, str]]:
    return {tuple(sorted((child, par))) for child, par in parent.items()}


def is_spanning_tree(parent: dict[str, str], root: str, graph: Graph) -> bool:
    """Union-find acyclicity plus the |V|-1 edge count and full coverage."""
    verts = graph.vertices()
    if set(parent) | {root} != set(verts) or root in parent:
        return False
    if len(parent) != len(verts) - 1:
        return False
    lead: dict[str, str] = {}

    def find(x: str) -> str:
        while lead.get(x, x) != x:
            lead[x] = lead.get(lead[x], lead[x])
            x = lead[x]
        return x

    for child, par in parent.items():
        if not graph.has_edge(child, par):
            return False
        ra, rb = find(child), find(par)
        if ra == rb:
            return False
        lead[ra] = rb
    return True
