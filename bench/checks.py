"""Output checks made apart from the program.

Graphs are derived here from their definitions, or parsed here from the
edge-list files the commands read, never through ``otisham``.  Each check
returns None for an accepted output and a one-line reason otherwise.
``corruptions`` yields damaged copies of a real output so that a run can
show every check rejecting them.
"""

from __future__ import annotations

import copy


class Host:
    """Vertex set and edge set of an undirected graph with string labels."""

    def __init__(self, vertices, edges):
        self.vertices = set(vertices)
        self.adj = {v: set() for v in self.vertices}
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def has_edge(self, u, v) -> bool:
        return v in self.adj.get(u, ())

    def degree(self, v) -> int:
        return len(self.adj[v])


# -- graphs from their definitions -----------------------------------------


def bowtie_base(m: int, n: int):
    """Cycles 1..m and m..m+n-1 sharing vertex m (labels as strings)."""
    i = m + n - 1
    left = list(range(1, m + 1))
    right = list(range(m, i + 1))
    edges = [(left[k], left[(k + 1) % m]) for k in range(m)]
    edges += [(right[k], right[(k + 1) % n]) for k in range(n)]
    return [str(v) for v in range(1, i + 1)], [(str(a), str(b)) for a, b in edges]


def cycle_base(k: int):
    return [str(v) for v in range(1, k + 1)], [(str(v), str(v % k + 1)) for v in range(1, k + 1)]


def complete_base(k: int):
    verts = [str(v) for v in range(1, k + 1)]
    return verts, [(a, b) for x, a in enumerate(verts) for b in verts[x + 1 :]]


def butterfly_base(dim: int):
    """Wrapped butterfly: (level, word) joins level+1 mod dim with the word
    kept or with bit (level+1 mod dim) flipped; labels ``level:bits``,
    lowest bit first."""

    def label(level, word):
        return f"{level}:" + "".join(str((word >> j) & 1) for j in range(dim))

    verts = [label(lv, w) for lv in range(dim) for w in range(1 << dim)]
    edges = []
    for lv in range(dim):
        nxt = (lv + 1) % dim
        for w in range(1 << dim):
            edges.append((label(lv, w), label(nxt, w)))
            edges.append((label(lv, w), label(nxt, w ^ (1 << nxt))))
    return verts, edges


def otis_host(base) -> Host:
    """One copy of the base per base vertex g (vertices ``g:u``), plus the
    transpose edge <g,u> -- <u,g> for every g != u."""
    verts, edges = base
    vertices = [f"{g}:{u}" for g in verts for u in verts]
    out = [(f"{g}:{a}", f"{g}:{b}") for g in verts for a, b in edges]
    out += [(f"{g}:{u}", f"{u}:{g}") for x, g in enumerate(verts) for u in verts[x + 1 :]]
    return Host(vertices, out)


def parse_edge_list(text: str) -> Host:
    """The ``V <count>`` edge-list format, parsed here."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "V":
        raise ValueError("edge list without a V line")
    vertices, edges = [], []
    for parts in lines[1:]:
        vertices.extend(parts)
        if len(parts) == 2:
            edges.append(tuple(parts))
    host = Host(vertices, edges)
    if len(host.vertices) != int(lines[0][1]):
        raise ValueError("vertex count does not match the V line")
    return host


# -- checks ----------------------------------------------------------------


def cycle_problem(host: Host, order) -> str | None:
    """Why ``order`` is not a Hamiltonian cycle of ``host``."""
    if not isinstance(order, list) or len(order) != len(host.vertices):
        return f"cycle has {len(order) if isinstance(order, list) else '?'} vertices, want {len(host.vertices)}"
    if set(order) != host.vertices:
        return "cycle repeats or misses a vertex"
    for k, u in enumerate(order):
        v = order[(k + 1) % len(order)]
        if not host.has_edge(u, v):
            return f"step {u}-{v} is not an edge"
    return None


def check_build(out: dict, host: Host, m: int, n: int) -> str | None:
    if out.get("m") != m or out.get("n") != n or out.get("verified") is not True:
        return "header does not echo (m, n) with verified=true"
    return cycle_problem(host, out.get("cycle"))


def _depths(parent: dict, root: str, host: Host) -> dict | str:
    """Depth of every vertex in a parent map that must span ``host``."""
    if not isinstance(parent, dict) or set(parent) != host.vertices - {root}:
        return "tree does not span the graph minus its root"
    for child, par in parent.items():
        if not host.has_edge(child, par):
            return f"tree edge {child}-{par} is not an edge"
    depth = {root: 0}
    for v in parent:
        path = []
        while v not in depth:
            path.append(v)
            if len(path) > len(parent):
                return f"parent chain from {path[0]} never reaches the root"
            v = parent[v]
        base = depth[v]
        for k, u in enumerate(reversed(path), 1):
            depth[u] = base + k
    return depth


def _interior(parent: dict, root: str, v: str) -> set:
    out = set()
    v = parent[v]
    while v != root:
        out.add(v)
        v = parent[v]
    return out


def check_ist(out: dict, host: Host, root: str, sample) -> str | None:
    """Both trees span ``host`` from ``root`` on graph edges; for every
    vertex in ``sample`` the two root paths share only their ends."""
    if out.get("root") != root:
        return "wrong root"
    if out.get("independent") is not True or out.get("edge_disjoint") is not True:
        return "output does not report independent and edge-disjoint trees"
    t1, t2 = out.get("t1"), out.get("t2")
    for tree in (t1, t2):
        depth = _depths(tree, root, host)
        if isinstance(depth, str):
            return depth
    for v in sample:
        if v == root:
            continue
        shared = _interior(t1, root, v) & _interior(t2, root, v)
        if shared:
            return f"root paths of {v} share {min(shared)}"
    return None


def check_decide(out: dict, host: Host, hamiltonian: bool) -> str | None:
    verdict = out.get("verdict")
    if not hamiltonian:
        if verdict != "non-hamiltonian" or out.get("witness") is not None:
            return f"verdict {verdict}, want non-hamiltonian"
        return None
    if verdict != "hamiltonian":
        return f"verdict {verdict}, want hamiltonian"
    return cycle_problem(host, out.get("witness"))


def check_refute_count(out: dict, host: Host) -> str | None:
    """The published OTIS(BF(4,4)) counts, re-derived from the graph."""
    n_v = len(host.vertices)
    n_e = sum(len(a) for a in host.adj.values()) // 2
    if (n_v, n_e) != (49, 77):
        return f"graph has {n_v} vertices and {n_e} edges, want 49 and 77"
    want = {"edge_budget": 28, "family_bound": 20, "independent_bound": 9, "total_bound": 29,
            "verdict": "non-hamiltonian"}
    for key, value in want.items():
        if out.get(key) != value:
            return f"{key} is {out.get(key)!r}, want {value!r}"
    family, indep = out.get("high_degree_family"), out.get("independent_set")
    if not isinstance(family, list) or not isinstance(indep, list):
        return "certificate sets missing"
    if not set(family) | set(indep) <= host.vertices:
        return "certificate names an unknown vertex"
    if any(host.degree(v) < 4 for v in family) or _adjacent_pair(host, family):
        return "family is not pairwise non-adjacent vertices of degree >= 4"
    if sum(host.degree(v) - 2 for v in family) != out["family_bound"]:
        return "family_bound is not the sum of (degree - 2)"
    if any(host.degree(v) != 3 or any(host.degree(w) >= 4 for w in host.adj[v]) for v in indep):
        return "independent set holds a vertex not of degree 3 or next to degree >= 4"
    if _adjacent_pair(host, indep) or len(set(indep)) != len(indep) or len(indep) != out["independent_bound"]:
        return "independent set is not independent or miscounted"
    if out["family_bound"] + out["independent_bound"] != out["total_bound"]:
        return "total_bound is not family_bound + independent_bound"
    if out["total_bound"] <= n_e - n_v:
        return "total does not exceed the edge budget"
    return None


def _adjacent_pair(host: Host, vertices) -> bool:
    return any(host.has_edge(u, v) for x, u in enumerate(vertices) for v in vertices[x + 1 :])


# -- self-test -------------------------------------------------------------


def corruptions(kind: str, out: dict):
    """(what, damaged copy) pairs of a correct output of command ``kind``."""

    def damaged(fn):
        bad = copy.deepcopy(out)
        fn(bad)
        return bad

    def swap_pair(seq):
        seq[1], seq[len(seq) // 2] = seq[len(seq) // 2], seq[1]

    def reverse_half(seq):
        seq[1 : len(seq) // 2] = seq[len(seq) // 2 - 1 : 0 : -1]

    if kind == "ham-build":
        yield "swapped vertex pair", damaged(lambda o: swap_pair(o["cycle"]))
        yield "non-edge step", damaged(lambda o: reverse_half(o["cycle"]))
        yield "repeated vertex", damaged(lambda o: o["cycle"].__setitem__(-1, o["cycle"][0]))
    elif kind == "ist":
        yield "shared interior vertex", damaged(lambda o: o.__setitem__("t2", dict(o["t1"])))
        yield "non-edge tree step", damaged(lambda o: _reparent_far(o["t1"], o["root"]))
        yield "flipped independence flag", damaged(lambda o: o.__setitem__("independent", False))
    elif kind == "decide":
        flip = {"hamiltonian": "non-hamiltonian", "non-hamiltonian": "hamiltonian"}
        yield "flipped verdict", damaged(lambda o: o.__setitem__("verdict", flip[o["verdict"]]))
        if out.get("witness"):
            yield "swapped vertex pair", damaged(lambda o: swap_pair(o["witness"]))
    elif kind == "refute-count":
        yield "flipped verdict", damaged(lambda o: o.__setitem__("verdict", "hamiltonian"))
        yield "swapped vertex pair", damaged(_swap_family_member)
        yield "repeated vertex", damaged(lambda o: o["independent_set"].__setitem__(1, o["independent_set"][0]))


def _swap_family_member(out: dict) -> None:
    fam, ind = out["high_degree_family"], out["independent_set"]
    fam[0], ind[0] = ind[0], fam[0]


def _reparent_far(parent: dict, root: str) -> None:
    """Point the vertex at depth 2 at the deepest vertex: a non-edge in
    general, and a loop back through its own subtree in any case."""
    order = sorted(parent, key=lambda v: _path_len(parent, root, v))
    parent[order[1]] = order[-1]


def _path_len(parent, root, v) -> int:
    k = 0
    while v != root:
        v = parent[v]
        k += 1
    return k
