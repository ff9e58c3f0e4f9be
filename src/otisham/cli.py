"""Command line front end.

Exit codes: 0 success / verdict obtained, 2 inconclusive (budget),
3 verification mismatch or a key-edge table fault, 4 usage error: a bad
option or size (such as ``sweep --max-base`` below 5), a ``gen`` option
missing or foreign to its family, an unreadable or malformed input file,
or a label or pair the graph does not have.  Handlers raise ``GraphError``
for usage errors and ``KeyEdgeError`` for table faults, and ``main`` alone
prints each as one ``error:`` line.  ``--json`` output is
byte-identical across runs for identical inputs, budgets and seed;
timings are printed only in human-readable mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter

from . import __version__
from .constructive import (
    FailureReport,
    KeyEdgeError,
    ParamClass,
    build_ham_cycle,
    classify,
    key_edges,
)
from .engine import (
    EdgeAssignment,
    HAMILTONIAN,
    INCONCLUSIVE,
    NON_HAMILTONIAN,
    SearchBudget,
    counting_refutation,
    decide,
)
from .graph import Graph, GraphError, cycle_violation, graph_hash
from .io import read_cycle_certificate, read_edge_list, read_seed, to_dot, write_cycle_certificate, write_edge_list
from .topology import (
    bowtie_pair,
    gen_bowtie,
    gen_butterfly,
    gen_complete,
    gen_cycle,
    gen_path,
    otis,
    otis_bowtie_hash,
    otis_label,
)
from .trees import build_ists, independence_report

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(kind):
    """argparse type: a ``kind`` value that must be greater than zero."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise GraphError(f"{path} is not UTF-8 text") from None


def _read_graph(path: str) -> Graph:
    return read_edge_list(_read_text(path))


def _emit(args, payload: dict) -> None:
    if args.json:
        payload = dict(payload)
        payload["version"] = __version__
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
        print(f"wall_ms: {(time.perf_counter() - args.t0) * 1e3:.1f}")


def _cycle_graph(order) -> Graph:
    """The cycle ``order`` as a graph: every edge of the trees cut from it,
    which is all that ``independence_report`` looks up."""
    return Graph.from_edges(zip(order, [*order[1:], order[0]]), vertices=order)


def _write_graph(graph: Graph, out: str | None, dot: bool) -> None:
    text = to_dot(graph) if dot else write_edge_list(graph)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


# family -> (generator, the options it takes, in call order)
_GEN = {
    "bowtie": (gen_bowtie, ("m", "n")),
    "butterfly": (gen_butterfly, ("dim",)),
    "cycle": (gen_cycle, ("k",)),
    "path": (gen_path, ("k",)),
    "complete": (gen_complete, ("k",)),
}


def cmd_gen(args) -> int:
    gen, opts = _GEN[args.family]
    values = [getattr(args, opt) for opt in opts]
    if None in values:
        raise GraphError(f"gen {args.family} requires {' and '.join('--' + opt for opt in opts)}")
    stray = [f"--{opt}" for opt in ("m", "n", "dim", "k") if opt not in opts and getattr(args, opt) is not None]
    if stray:
        raise GraphError(f"gen {args.family} takes no {' or '.join(stray)}")
    _write_graph(gen(*values), args.out, args.dot)
    return EXIT_OK


def cmd_otis(args) -> int:
    base = _read_graph(getattr(args, "in"))
    _write_graph(otis(base), args.out, args.dot)
    return EXIT_OK


def cmd_decide(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    seed = None
    if args.seed:
        forced, deleted = read_seed(_read_text(args.seed))
        seed = EdgeAssignment.for_graph(graph)
        for u, v in forced:
            seed.seed_force(u, v)
        for u, v in deleted:
            seed.seed_delete(u, v)
    verdict = decide(graph, seed=seed, budget=_budget(args))
    payload = {
        "verdict": verdict.status,
        "witness": list(verdict.cycle) if verdict.cycle else None,
        "nodes": verdict.nodes,
        "depth": verdict.max_depth,
        "input_hash": graph_hash(graph),
    }
    _emit(args, payload)
    return EXIT_INCONCLUSIVE if verdict.status == INCONCLUSIVE else EXIT_OK


def cmd_refute_count(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    cert = counting_refutation(graph)
    if cert is None:
        payload = {"inconclusive": True, "input_hash": graph_hash(graph)}
        _emit(args, payload)
        return EXIT_INCONCLUSIVE
    payload = {
        "edge_budget": cert.edge_budget,
        "high_degree_family": list(cert.high_degree_family),
        "family_bound": cert.family_bound,
        "independent_set": list(cert.independent_set),
        "independent_bound": cert.independent_bound,
        "total_bound": cert.total_bound,
        "verdict": NON_HAMILTONIAN,
        "input_hash": graph_hash(graph),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_ham_build(args) -> int:
    if args.emit_key_edges and (args.dot or args.out):
        raise GraphError("--emit-key-edges takes neither --dot nor --out")
    # even-even pairs have no table; they get the same unsupported-class
    # report below that a build gives
    cls = classify(args.m, args.n)
    if args.dot and cls is not ParamClass.EVEN_EVEN:
        _write_graph(otis(gen_bowtie(args.m, args.n)), args.out, True)
        return EXIT_OK
    if args.emit_key_edges and cls is not ParamClass.EVEN_EVEN:
        payload = {
            "m": args.m,
            "n": args.n,
            "class": cls.value,
            "key_edges": [
                {"cluster": ke.cluster, "edge": [ke.a, ke.b], "tag": ke.tag}
                for ke in key_edges(args.m, args.n)
            ],
        }
        _emit(args, payload)
        return EXIT_OK
    result = build_ham_cycle(args.m, args.n)
    if isinstance(result, FailureReport):
        payload = {
            "m": args.m,
            "n": args.n,
            "class": result.param_class.value,
            "failure": result.kind,
            "detail": result.detail,
        }
        _emit(args, payload)
        return EXIT_OK
    digest = otis_bowtie_hash(args.m, args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write_cycle_certificate(result.cycle, digest) + "\n")
    payload = {
        "m": args.m,
        "n": args.n,
        "class": result.param_class.value,
        "cycle": list(result.cycle),
        "verified": True,
        "steps": result.steps,
        "graph_hash": digest,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_ist(args) -> int:
    cert = read_cycle_certificate(_read_text(args.cycle))
    graph = None
    if getattr(args, "in", None):
        graph = _read_graph(getattr(args, "in"))
        if graph_hash(graph) != cert["graph_hash"]:
            print("error: certificate does not match the supplied graph", file=sys.stderr)
            return EXIT_MISMATCH
    pair = build_ists(cert["order"], args.root)
    if graph is None:
        graph = _cycle_graph(cert["order"])
    report = independence_report(pair, graph)
    payload = {
        "root": pair.root,
        "t1": pair.parent1,
        "t2": pair.parent2,
        "independent": report.vertex_disjoint,
        "edge_disjoint": report.edge_disjoint,
    }
    _emit(args, payload)
    if not report.vertex_disjoint:
        print(f"error: {report.first_violation}", file=sys.stderr)
    return EXIT_OK if report.vertex_disjoint else EXIT_MISMATCH


def cmd_verify(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    cert = read_cycle_certificate(_read_text(args.cycle))
    input_hash = graph_hash(graph)
    hash_ok = input_hash == cert["graph_hash"]
    reason = cycle_violation(graph, cert["order"])
    payload = {
        "hash_match": hash_ok,
        "valid_cycle": reason is None,
        "reason": reason,
        "input_hash": input_hash,
    }
    _emit(args, payload)
    return EXIT_OK if hash_ok and reason is None else EXIT_MISMATCH


def cmd_export(args) -> int:
    graph = _read_graph(getattr(args, "in"))
    _write_graph(graph, args.out, dot=True)
    return EXIT_OK


# expected values for the reproduction command, in the report's own shape
# (degree census keyed by the degree as a string)
_REPRO_EXPECT = {
    "vertices": 49,
    "edges": 77,
    "edge_budget": 28,
    "family_bound": 20,
    "independent_bound": 9,
    "total_bound": 29,
    "census": {"2": 6, "3": 36, "4": 1, "5": 6},
    "degree5": ["1:4", "2:4", "3:4", "5:4", "6:4", "7:4"],
    "verdict_4_4": NON_HAMILTONIAN,
    "verdict_4_6": NON_HAMILTONIAN,
}


def reproduce_report() -> tuple[dict, list[str]]:
    """Recompute the headline counts; returns (report, mismatches)."""
    g44 = otis(gen_bowtie(4, 4))
    g46 = otis(gen_bowtie(4, 6))
    census = Counter(map(len, g44.incident))
    cert = counting_refutation(g44)
    verdict_44 = decide(g44)
    verdict_46 = decide(g46)
    report = {
        "vertices": g44.n_vertices,
        "edges": g44.n_edges,
        "edge_budget": cert.edge_budget if cert else None,
        "family_bound": cert.family_bound if cert else None,
        "independent_bound": cert.independent_bound if cert else None,
        "total_bound": cert.total_bound if cert else None,
        "census": {str(k): v for k, v in sorted(census.items())},
        "degree5": sorted(v for v, inc in zip(g44.labels, g44.incident) if len(inc) == 5),
        "verdict_4_4": verdict_44.status,
        "verdict_4_6": verdict_46.status,
    }
    mismatches = [
        f"{key}: expected {want}, got {report[key]}"
        for key, want in _REPRO_EXPECT.items()
        if report[key] != want
    ]
    return report, mismatches


def cmd_reproduce(args) -> int:
    report, mismatches = reproduce_report()
    payload = dict(report)
    payload["mismatches"] = mismatches
    payload["ok"] = not mismatches
    _emit(args, payload)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def sweep_pairs(max_base: int) -> list[tuple[int, int]]:
    """Every (m, n) with 3 <= m <= n and m + n - 1 <= max_base, as given
    (not normalized), even-even pairs included."""
    pairs = []
    for a in range(3, max_base + 1):
        for b in range(a, max_base + 1):
            if a + b - 1 <= max_base:
                pairs.append((a, b))
    return pairs


def _sweep_one(m: int, n: int) -> dict:
    m, n = bowtie_pair(m, n)
    result = build_ham_cycle(m, n)
    entry = {"m": m, "n": n, "class": result.param_class.value}
    if isinstance(result, FailureReport):
        entry["status"] = "unsupported"
        entry["detail"] = result.detail
        return entry
    # the cycle passed the build's check, so it holds every tree edge
    graph = _cycle_graph(result.cycle)
    roots = [otis_label(str(v), str(v)) for v in (1, m, m + n - 1)]
    independent = True
    for root in roots:
        pair = build_ists(result.cycle, root)
        if not independence_report(pair, graph).vertex_disjoint:
            independent = False
    entry.update(
        status="ok" if independent else "failed",
        cycle_len=len(result.cycle),
        steps=result.steps,
        ist_roots=roots,
        ist_independent=independent,
    )
    return entry


def cmd_sweep(args) -> int:
    if args.max_base < 5:
        raise GraphError("--max-base must be >= 5")
    entries = [_sweep_one(m, n) for m, n in sweep_pairs(args.max_base)]
    entries.sort(key=lambda e: (e["m"], e["n"]))
    failed = [e for e in entries if e["status"] == "failed"]
    payload = {
        "max_base": args.max_base,
        "pairs": len(entries),
        "ok": len([e for e in entries if e["status"] == "ok"]),
        "unsupported": len([e for e in entries if e["status"] == "unsupported"]),
        "failed": len(failed),
        "entries": entries,
    }
    _emit(args, payload)
    return EXIT_OK if not failed else EXIT_MISMATCH


@functools.cache
def build_parser() -> _Parser:
    """The process's one parser, built on the first ``main`` call and reused:
    ``main(argv)`` may be called any number of times in one process, and each
    call gives the same exit code and output as a separate ``python -m
    otisham`` process given the same ``argv``.  ``parse_args`` fills a fresh
    namespace and ``_Parser.error`` only prints and exits, so no call changes
    the parser."""
    parser = _Parser(prog="otisham", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    def add_budget(p, scope=""):
        p.add_argument("--budget-nodes", type=_positive(int), dest="budget_nodes",
                       default=SearchBudget().max_nodes, help="search node budget" + scope)
        p.add_argument("--budget-secs", type=_positive(float), dest="budget_secs",
                       default=SearchBudget().max_seconds, help="search time budget in seconds" + scope)

    # every pair is built by a walk, which does not search; the options stay
    # for the even-even pairs, which nothing decides yet
    no_search = "; it bounds nothing here until even-even pairs are decided"

    p = add("gen", cmd_gen, help="generate a base graph")
    p.add_argument("family", choices=["bowtie", "butterfly", "cycle", "path", "complete"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--dot", action="store_true")

    p = add("otis", cmd_otis, help="swapped network of a base graph")
    p.add_argument("--in", required=True)
    p.add_argument("--out")
    p.add_argument("--dot", action="store_true")

    p = add("decide", cmd_decide, help="complete Hamiltonicity decision")
    p.add_argument("--in", required=True)
    add_budget(p)
    p.add_argument("--seed", help="JSON file with forced/deleted label pairs")

    p = add("refute-count", cmd_refute_count, help="counting non-Hamiltonicity certificate")
    p.add_argument("--in", required=True)

    p = add("ham-build", cmd_ham_build, help="table-driven cycle construction")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit-key-edges", action="store_true")
    add_budget(p, no_search)
    p.add_argument("--out")
    p.add_argument("--dot", action="store_true")

    p = add("ist", cmd_ist, help="independent spanning trees from a cycle")
    p.add_argument("--cycle", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--in")

    p = add("verify", cmd_verify, help="verify a cycle certificate")
    p.add_argument("--in", required=True)
    p.add_argument("--cycle", required=True)

    p = add("export", cmd_export, help="edge list to DOT")
    p.add_argument("--in", required=True)
    p.add_argument("--out")

    add("reproduce", cmd_reproduce, help="recompute the headline counts")

    p = add("sweep", cmd_sweep, help="build and verify every supported pair")
    p.add_argument("--max-base", type=int, required=True)
    add_budget(p, no_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (GraphError, OSError, KeyEdgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, KeyEdgeError) else EXIT_USAGE
