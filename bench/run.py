"""Benchmark of whole ``otisham`` commands.

    python3 bench/run.py --workload {build,ist,decide} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The set-up (importing ``otisham`` and
writing the workload's input files) runs in a fresh child process, once
before timing and again between passes; ``setup_s`` is their median.
The measuring process calls ``otisham.cli.main([..., "--json"])`` in a closed
loop, one command at a time, repeating whole passes over the workload's
commands until S seconds have gone by.  Every output is checked apart
from the program.  bench/README.md defines the metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a run with timing wrappers around the calls between modules
(``--trace 1``).  Result and trace files go to ``bench/_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SETUP_REPS = 15

# per-layer metric -> span name whose time per pass it reports
LAYER_MS = {
    "io.read_edge_list_ms": "io.read_edge_list",
    "io.read_certificate_ms": "io.read_certificate",
    "graph.hash_ms": "graph.hash",
    "graph.verify_ms": "graph.verify",
    "topology.otis_ms": "topology.otis",
    "constructive.key_edges_ms": "constructive.key_edges",
    "engine.index_ms": "engine.index",
    "engine.seed_ms": "engine.seed",
    "engine.propagate_ms": "engine.propagate",
    "engine.search_ms": "engine.search",
    "engine.refute_ms": "engine.refute",
    "trees.build_ists_ms": "trees.build_ists",
    "trees.independence_ms": "trees.independence",
}
# per-layer count metric -> Tracer count key
LAYER_COUNTS = {
    "constructive.key_edges": "key_edges",
    "engine.undecided_after_seed": "undecided_after_seed",
    "engine.search_nodes": "search_nodes",
    "engine.search_depth": "search_depth",
    "engine.steps": "steps",
}


def upper_quartile(values: list[float]) -> float:
    """The typical figure of repeated measurements.  The host's speed swings
    between a usual level and faster spells whose share varies from run to
    run; the upper quartile stays on the usual level (README)."""
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def import_cli():
    """``otisham.cli`` from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "otisham" / "__init__.py").is_file():
        raise SystemExit(f"error: no otisham package under {src}")
    sys.path.insert(0, str(src))
    import otisham.cli

    if not Path(otisham.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: otisham was imported from {otisham.cli.__file__}")
    return otisham.cli


def run_cli(cli, argv) -> tuple[int, str, float, str]:
    """(exit code, stdout, seconds, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a failed run
            rc = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), seconds, err.getvalue()


def setup_child(workload: str, workdir: Path) -> None:
    """Import the program and write the inputs; print the seconds taken."""
    t0 = time.perf_counter()
    cli = import_cli()

    def run(argv):
        rc, out, _, err = run_cli(cli, argv)
        if rc != 0:
            raise SystemExit(f"error: set-up command {' '.join(argv)} exited {rc}: {err.strip()}")
        return out

    workloads.make_inputs(workload, workdir, run)
    print(time.perf_counter() - t0)


def timed_setup(workload: str, workdir: Path) -> float:
    """Seconds one fresh child process takes to set the workload up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-child", workload, "--workdir", str(workdir)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr.strip() or f"error: set-up exited {proc.returncode}")
    return float(proc.stdout.split()[-1])


class Run:
    """Whole passes over a workload's commands, with every output checked."""

    def __init__(self, cli, cmds, rng, tracer, setup_once, first_setup: float):
        self.cli, self.cmds, self.rng, self.tracer = cli, cmds, rng, tracer
        self.setup_once = setup_once
        self.setup = [first_setup]  # seconds per set-up; the first made the inputs
        self.latency = [[] for _ in cmds]  # seconds per accepted command
        self.passes: list[list[int]] = []  # command order of each pass
        self.pass_spans: list[tuple[int, int]] = []  # span index range of each pass
        self.pass_counts: list[list[dict]] = []
        self.accepted = [None] * len(cmds)  # first accepted stdout per command
        self.counts = [None] * len(cmds)  # its counts, which must repeat
        self.attempted = self.failed = 0
        self.correct = True

    def measure(self, seconds: float) -> None:
        """Whole passes for ``seconds``; the remaining set-ups run between
        passes, spread over the run, so that they meet the same host load."""
        start = time.perf_counter()
        while not self.passes or time.perf_counter() - start < seconds:
            self.one_pass()
            if len(self.passes) == 1:
                self.self_test()
            due = 1 + int((time.perf_counter() - start) / seconds * (SETUP_REPS - 1))
            while len(self.setup) < min(due, SETUP_REPS):
                self.setup.append(self.setup_once())
        while len(self.setup) < SETUP_REPS:
            self.setup.append(self.setup_once())

    def one_pass(self) -> None:
        order = list(range(len(self.cmds)))
        self.rng.shuffle(order)
        tr = self.tracer
        lo = len(tr.spans) if tr else 0
        counts = []
        for i in order:
            gc.collect()
            if tr:
                tr.counts.clear()
                span = tr.begin("cli.main")
            rc, out, seconds, err = run_cli(self.cli, self.cmds[i].argv + ("--json",))
            traced = {}
            if tr:
                tr.end(span)
                traced = dict(tr.counts)
                counts.append(traced)
            self.attempted += 1
            problem = self.judge(i, rc, out, err, traced)
            if problem:
                self.failed += 1
                print(f"failed: {self.cmds[i].label}: {problem}", file=sys.stderr)
            else:
                self.latency[i].append(seconds)
        self.passes.append(order)
        self.pass_spans.append((lo, len(tr.spans) if tr else 0))
        self.pass_counts.append(counts)

    def judge(self, i: int, rc: int, out: str, err: str, traced: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        try:
            payload = json.loads(out)
        except ValueError:
            self.correct = False
            return "output is not JSON"
        if out != self.accepted[i]:
            problem = self.cmds[i].check(payload)
            if problem:
                self.correct = False
                return problem
        counts = {k: payload[k] for k in ("steps", "nodes", "depth") if k in payload}
        counts.update(traced)
        if self.counts[i] is None:
            self.accepted[i], self.counts[i] = out, counts
        elif counts != self.counts[i]:
            self.correct = False
            return f"counts {counts} differ from the first pass's {self.counts[i]}"
        return None

    def self_test(self) -> None:
        """Each check must reject damaged copies of a real output."""
        smallest = {}
        for i, cmd in enumerate(self.cmds):
            if self.accepted[i] and cmd.vertices < smallest.get(cmd.kind, (math.inf,))[0]:
                smallest[cmd.kind] = (cmd.vertices, i)
        for kind, (_, i) in sorted(smallest.items()):
            for what, bad in workloads.checks.corruptions(kind, json.loads(self.accepted[i])):
                reason = self.cmds[i].check(bad)
                print(f"self-test: {kind} with {what}: {'rejected, ' + reason if reason else 'ACCEPTED'}",
                      file=sys.stderr)
                if reason is None:
                    self.correct = False

    # -- metrics -----------------------------------------------------------

    def typical_latency(self, i: int) -> float:
        return upper_quartile(self.latency[i])

    def end_to_end(self) -> dict:
        typical = {i: self.typical_latency(i) for i, lat in enumerate(self.latency) if lat}
        small = [t for i, t in typical.items() if self.cmds[i].small]
        large = [t for i, t in typical.items() if self.cmds[i].largest]
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "vertices_per_s": (sum(self.cmds[i].vertices for i in typical) / sum(typical.values()), "vertices/s"),
            "small_op_ms": (statistics.geometric_mean(small) * 1e3, "ms"),
            "large_op_ms": (statistics.geometric_mean(large) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows = []
        for (lo, hi), counts in zip(self.pass_spans, self.pass_counts):
            row = dict.fromkeys(LAYER_MS.values(), 0.0)
            row["cli.self"] = 0.0
            for k in range(lo, hi):
                name, start, end, parent = spans[k]
                if name in row:
                    row[name] += end - start
                if name == "cli.main":
                    row["cli.self"] += end - start - child_time[k]
            for key in LAYER_COUNTS.values():
                values = [c.get(key, 0) for c in counts]
                row[key] = max(values) if key == "search_depth" else sum(values)
            row["nodes_per_s"] = row["search_nodes"] / row["engine.search"] if row["engine.search"] else 0.0
            rows.append(row)

        def med(key):
            return statistics.median(r[key] for r in rows)

        out = {"cli.self_ms": (med("cli.self") * 1e3, "ms")}
        out.update({metric: (med(span) * 1e3, "ms") for metric, span in LAYER_MS.items()})
        out.update({metric: (statistics.median_low(r[key] for r in rows), "count")
                    for metric, key in LAYER_COUNTS.items()})
        out["engine.nodes_per_s"] = (med("nodes_per_s"), "nodes/s")
        out["engine.search_peak_mb"] = (self.tracer.search_peak_mb, "MB")
        out["constructive.wall_exponent"] = (self.exponent(self.typical_latency), "slope")
        out["constructive.steps_exponent"] = (self.exponent(lambda i: self.counts[i]["steps"]), "slope")
        return out

    def exponent(self, value) -> float:
        """Least-squares slope of log(value) against log(V) over the table
        builds; 0 for workloads without builds."""
        fallback = {f"BF({m},{n})" for m, n in workloads.FALLBACK_PAIRS}
        pts = [(math.log(c.vertices), math.log(value(i))) for i, c in enumerate(self.cmds)
               if c.kind == "ham-build" and c.instance not in fallback and self.latency[i]]
        if len(pts) < 2:
            return 0.0
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)

    def search_peak(self) -> None:
        """tracemalloc peak of the search in one more run of the largest
        input, for workloads whose commands reach the search."""
        i = next(i for i, c in enumerate(self.cmds) if c.largest)
        if self.cmds[i].kind in ("ham-build", "decide"):
            self.tracer.measure_peak = True
            gc.collect()
            run_cli(self.cli, self.cmds[i].argv + ("--json",))
            self.tracer.measure_peak = False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_child:
        setup_child(args.setup_child, args.workdir)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    os.environ.pop("OTISHAM_THREADS", None)
    cli = import_cli()  # fails before any set-up when the checkout has no program
    workdir = Path("bench") / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_once = functools.partial(timed_setup, args.workload, workdir)
        first_setup = setup_once()
        rng = random.Random(args.seed)
        cmds = workloads.commands(args.workload, workdir, rng)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(sys.modules["otisham"])
        run = Run(cli, cmds, rng, tracer, setup_once, first_setup)
        run.measure(args.seconds)
        e2e = run.end_to_end()
        figures = e2e
        if tracer:
            run.search_peak()
            figures = run.per_layer()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {c.label: [s * 1e3 for s in lat] for c, lat in zip(cmds, run.latency)}
    dump = {**result, "setup_samples_s": run.setup, "latency_ms": samples}
    (OUT / f"result-{stem}.json").write_text(json.dumps(dump) + "\n", encoding="utf-8")
    if tracer:
        trace = {
            "commands": [c.label for c in cmds],
            "passes": [[cmds[i].label for i in p] for p in run.passes],
            "pass_spans": run.pass_spans,
            "per_command": [
                {"label": c.label, "vertices": c.vertices, "typical_ms": run.typical_latency(i) * 1e3, **run.counts[i]}
                for i, c in enumerate(cmds) if run.latency[i]
            ],
            "spans": tracer.spans,
            "end_to_end_traced": {k: v for k, (v, _) in e2e.items()},
        }
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
