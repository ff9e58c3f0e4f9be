"""The root-path-walking independence check, kept as the reference for
``trees.independence_report``, plus the spanning-tree helpers the tests use.

``independence_report`` here walks both root paths of every vertex, which
is O(V^2), and handles trees of any shape.  The library check accepts only
the shape ``build_ists`` makes, one Hamiltonian path walked both ways, in
O(V).  On every pair ``build_ists`` gives, the two must return equal
``IndependenceReport``s; on any other pair the library may reject what the
walker accepts, but never the other way round.
"""

from __future__ import annotations

from otisham.graph import Graph
from otisham.trees import IndependenceReport, TreePair

from graph_reference import has_edge


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


def independence_report(pair: TreePair, graph: Graph) -> IndependenceReport:
    """Check that both root paths of every vertex are internally
    vertex-disjoint (and, reported separately, edge-disjoint), and that
    every tree edge is an edge of ``graph``."""
    for parent in (pair.parent1, pair.parent2):
        for child, par in parent.items():
            if not has_edge(graph, child, par):
                return IndependenceReport(False, False, f"tree edge {child}-{par} not in graph")
    if pair.root in pair.parent1 or pair.root in pair.parent2:
        return IndependenceReport(False, False, f"root {pair.root} has a parent")
    vertex_ok = True
    edge_ok = True
    violation = None
    for v in graph.labels:
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
    verts = graph.labels
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
        if not has_edge(graph, child, par):
            return False
        ra, rb = find(child), find(par)
        if ra == rb:
            return False
        lead[ra] = rb
    return True
