"""The label-level counting refuter that ``engine.counting_refutation``
replaced, and a checker that replays a counting certificate.

``counting_refutation`` reads the graph through ``degree``, ``neighbors``
and ``has_edge``: it takes the high-degree family greedily over the sorted
labels, testing each vertex against every member found so far, so its cost
grows with V times the family's size.  The package's one-pass refuter must
return the same certificate, or None, on every graph.

``certificate_problems`` checks a certificate against the graph alone,
without either refuter: the counting argument holds exactly when it
returns no problem.
"""

from __future__ import annotations

from otisham.engine import MIS_CANDIDATE_CAP, CountingCertificate, _max_independent_set
from otisham.graph import Graph

from graph_reference import degree, has_edge, neighbors


def counting_refutation(graph: Graph) -> CountingCertificate | None:
    budget = graph.n_edges - graph.n_vertices
    if budget < 0:
        return None
    high: list[str] = []
    for v in sorted(graph.labels):
        if degree(graph, v) >= 4 and all(not has_edge(graph, v, w) for w in high):
            high.append(v)
    family_bound = sum(degree(graph, v) - 2 for v in high)
    high_or_excluded = {v for v in graph.labels if degree(graph, v) >= 4}
    candidates = [
        v
        for v in graph.labels
        if degree(graph, v) == 3
        and not any(w in high_or_excluded for w in neighbors(graph, v))
    ]
    if len(candidates) > MIS_CANDIDATE_CAP:
        return None
    cand_set = set(candidates)
    adj = {v: {w for w in neighbors(graph, v) if w in cand_set} for v in candidates}
    mis = sorted(_max_independent_set(adj))
    total = family_bound + len(mis)
    if total <= budget:
        return None
    return CountingCertificate(
        edge_budget=budget,
        high_degree_family=tuple(high),
        family_bound=family_bound,
        independent_set=tuple(mis),
        independent_bound=len(mis),
        total_bound=total,
    )


def certificate_problems(graph: Graph, cert: CountingCertificate) -> list[str]:
    """Why ``cert`` does not prove ``graph`` non-Hamiltonian (empty if it does).

    A cycle leaves |E| - |V| edges unused.  A family member of degree d
    leaves d - 2 of its edges unused, and a degree-3 vertex one; no unused
    edge is counted twice when no two counted vertices are adjacent."""
    family, indep = cert.high_degree_family, cert.independent_set
    counted = family + indep
    problems = []
    if cert.edge_budget != graph.n_edges - graph.n_vertices:
        problems.append(f"edge_budget {cert.edge_budget} is not |E| - |V|")
    unknown = [v for v in counted if v not in graph.index]
    if unknown:
        return problems + [f"unknown vertices {unknown}"]
    if len(set(counted)) != len(counted):
        problems.append("a vertex is counted twice")
    problems += [f"family member {v} has degree below 4" for v in family if degree(graph, v) < 4]
    problems += [
        f"family members {u} and {v} are adjacent"
        for x, u in enumerate(family)
        for v in family[x + 1 :]
        if has_edge(graph, u, v)
    ]
    if cert.family_bound != sum(degree(graph, v) - 2 for v in family):
        problems.append(f"family_bound {cert.family_bound} is not the sum of deg - 2")
    problems += [f"set vertex {v} does not have degree 3" for v in indep if degree(graph, v) != 3]
    problems += [
        f"set vertex {v} is adjacent to {w}"
        for v in indep
        for w in neighbors(graph, v)
        if w in counted
    ]
    if cert.independent_bound != len(indep):
        problems.append(f"independent_bound {cert.independent_bound} is not the set's size")
    if cert.total_bound != cert.family_bound + cert.independent_bound:
        problems.append(f"total_bound {cert.total_bound} is not the sum of the two bounds")
    if cert.total_bound <= graph.n_edges - graph.n_vertices:
        problems.append(f"total_bound {cert.total_bound} does not exceed |E| - |V|")
    return problems
