"""``engine.counting_refutation`` against the label-level refuter it
replaced, with every certificate replayed by an independent checker."""

import random

import pytest

from otisham import cli
from otisham.engine import counting_refutation
from otisham.graph import Graph, cycle_violation
from otisham.topology import gen_butterfly, gen_cycle, otis

import count_reference
from conftest import GOLDEN_BASES, random_graph


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} on labels a1.. and b1..: the larger side's vertices, of
    degree a, sort after the smaller side's, of degree b."""
    return Graph.from_edges((f"a{x}", f"b{y}") for x in range(1, a + 1) for y in range(1, b + 1))


def refuter_cases():
    rng = random.Random(1)
    cases = [(f"random {k}", random_graph(rng, 12)) for k in range(2000)]
    for name in sorted(GOLDEN_BASES):
        base = GOLDEN_BASES[name]()
        cases += [(name, base), (f"OTIS({name})", otis(base))]
    cases += [(f"K_{a},{b}", complete_bipartite(a, b)) for a in range(2, 7) for b in range(a + 1, 7)]
    cases.append(("OTIS(WBF(4))", otis(gen_butterfly(4))))
    return cases


def test_refuter_matches_the_reference_and_every_certificate_replays():
    checked = []
    for name, graph in refuter_cases():
        cert = counting_refutation(graph)
        assert cert == count_reference.counting_refutation(graph), name
        if cert is not None:
            assert count_reference.certificate_problems(graph, cert) == [], name
            checked.append(name)
    assert len(checked) >= 10
    assert "OTIS(BF(4,4))" in checked
    assert {f"K_{a},{b}" for a in range(2, 7) for b in range(a + 1, 7)} <= set(checked)


@pytest.mark.parametrize(
    "field, value",
    [
        ("edge_budget", 27),
        ("high_degree_family", ("1:4", "2:4")),  # adjacent members
        ("family_bound", 21),
        ("independent_set", ("1:1",) * 9),  # degree 2, and counted twice
        ("independent_bound", 10),
        ("total_bound", 28),
    ],
)
def test_checker_rejects_a_damaged_certificate(field, value):
    graph = otis(GOLDEN_BASES["BF(4,4)"]())
    cert = counting_refutation(graph)
    assert count_reference.certificate_problems(graph, cert) == []
    assert count_reference.certificate_problems(graph, cert._replace(**{field: value})) != []


def test_whole_graph_passes_read_no_label_queries(monkeypatch):
    def refuse(*args):
        raise AssertionError("label query in a whole-graph pass")

    for name in ("edge_index", "_vertex"):
        monkeypatch.setattr(Graph, name, refuse)
    assert counting_refutation(otis(gen_butterfly(4))) is None
    report, mismatches = cli.reproduce_report()
    assert mismatches == [] and report["total_bound"] == 29
    c5 = gen_cycle(5)
    assert cycle_violation(c5, ["1", "2", "3", "4", "5"]) is None
    assert cycle_violation(c5, ["1", "3", "2", "4", "5"]) == "non-adjacent-step:1-3"
