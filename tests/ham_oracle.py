"""Independent permutation-backtracking Hamiltonicity oracle.

Deliberately shares no code with the propagation engine: plain DFS over
vertex orderings with a visited set.  Only suitable for small graphs.
"""

from __future__ import annotations

from otisham.graph import Graph

from graph_reference import neighbors


def oracle_find_cycle(graph: Graph) -> list[str] | None:
    """Some Hamiltonian cycle as a vertex order, or None."""
    verts = graph.labels
    n = len(verts)
    if n < 3:
        return None
    adj = {v: set(neighbors(graph, v)) for v in verts}
    start = verts[0]
    path = [start]
    used = {start}

    def extend() -> bool:
        if len(path) == n:
            return start in adj[path[-1]]
        for w in neighbors(graph, path[-1]):
            if w not in used:
                path.append(w)
                used.add(w)
                if extend():
                    return True
                used.remove(w)
                path.pop()
        return False

    return list(path) if extend() else None


def oracle_is_hamiltonian(graph: Graph) -> bool:
    return oracle_find_cycle(graph) is not None


def oracle_all_cycles(graph: Graph) -> list[frozenset[tuple[str, str]]]:
    """Every Hamiltonian cycle as a frozen edge set (each cycle once)."""
    verts = graph.labels
    n = len(verts)
    if n < 3:
        return []
    adj = {v: set(neighbors(graph, v)) for v in verts}
    start = verts[0]
    found: set[frozenset[tuple[str, str]]] = set()
    path = [start]
    used = {start}

    def record():
        edges = []
        for k, u in enumerate(path):
            v = path[(k + 1) % n]
            edges.append((u, v) if u < v else (v, u))
        found.add(frozenset(edges))

    def extend():
        if len(path) == n:
            if start in adj[path[-1]]:
                record()
            return
        for w in neighbors(graph, path[-1]):
            if w not in used:
                path.append(w)
                used.add(w)
                extend()
                used.remove(w)
                path.pop()

    extend()
    return sorted(found, key=sorted)
