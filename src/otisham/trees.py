"""Two independent spanning trees from a Hamiltonian cycle.

Removing either edge at a chosen root turns the cycle into a spanning
tree; the two trees route every vertex along opposite arcs, so their
root paths share no interior vertex.  ``independence_report`` checks that
shape itself, one Hamiltonian path walked both ways, in O(V) instead of
comparing root paths of general tree shapes.
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
    children = order[1:]
    # tree 1: walk against the cycle direction (root adopts its predecessor)
    parent1 = dict(zip(children, order[2:] + order[:1]))
    # tree 2: walk along the cycle direction
    parent2 = dict(zip(children, order))
    return TreePair(root, parent1, parent2)


class IndependenceReport(NamedTuple):
    vertex_disjoint: bool
    edge_disjoint: bool
    first_violation: str | None = None


def independence_report(pair: TreePair, graph: Graph | None = None) -> IndependenceReport:
    """Check, in O(V), that the pair is one Hamiltonian path walked both
    ways: tree 1 goes down the path from the root, and tree 2 climbs the
    same path back up to the root.  Then every vertex's two root paths are
    the two arcs of one cycle, so they share no interior vertex, and no
    edge once there are 3 vertices or more.  Any other pair is rejected.

    Given ``graph``, every tree edge must be a graph edge and every graph
    vertex must lie on the path; without it, the vertices are the trees'
    own.  Tree edges are looked up by vertex index: both labels in
    ``graph.index``, then the ordered index pair in ``graph.edge_id``, so a
    label the graph lacks fails as a missing edge.  The first violation is
    named in the order the checks run: a tree edge not in the graph (tree 1
    first), a root with a parent, a branch in tree 1, a vertex off the
    path, then a step of tree 2 off the path."""
    root, parent1, parent2 = pair
    if graph is not None:
        index, edge_id = graph.index.get, graph.edge_id
        for parent in (parent1, parent2):
            for child, p in parent.items():
                a, b = index(child), index(p)
                if a is None or b is None or ((a, b) if a < b else (b, a)) not in edge_id:
                    return IndependenceReport(False, False, f"tree edge {child}-{p} not in graph")
    if root in parent1 or root in parent2:
        return IndependenceReport(False, False, f"root {root} has a parent")
    below: dict[str, str] = {}
    for child, p in parent1.items():
        if p in below:
            return IndependenceReport(False, False, f"tree 1 branches at {p}")
        below[p] = child
    # no vertex has two children and the root has no parent, so this walk
    # cannot return to a vertex it has left
    path = [root]
    while path[-1] in below:
        path.append(below[path[-1]])
    on_path = set(path)
    vertices = graph.labels if graph is not None else [*parent1, *parent2]
    if not on_path.issuperset(vertices):
        missing = next(v for v in vertices if v not in on_path)
        return IndependenceReport(False, False, f"no root path for {missing}")
    for v, up in zip(path[1:], [*path[2:], root]):
        if parent2.get(v) != up:
            return IndependenceReport(False, False, f"tree 2 leaves the path at {v}")
    return IndependenceReport(True, len(path) != 2)
