"""Spans around the calls one module of ``otisham`` makes into another.

Each public function is swapped, in the namespace of the module that calls
it, for a wrapper that records a span (name, start, end, parent) and, for
some calls, counts read from the return value.  Nothing inside the program
changes; the end-to-end figures come from runs without these wrappers.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc
from collections import Counter

# (module that makes the call, function name, span name, count hook)
WRAPS = [
    ("cli", "read_edge_list", "io.read_edge_list", None),
    ("cli", "read_cycle_certificate", "io.read_certificate", None),
    ("cli", "graph_hash", "graph.hash", None),
    ("cli", "build_ham_cycle", "constructive.build_ham_cycle", "build"),
    ("cli", "decide", "engine.search", "decide"),
    ("cli", "counting_refutation", "engine.refute", None),
    ("cli", "build_ists", "trees.build_ists", None),
    ("cli", "independence_report", "trees.independence", None),
    ("constructive", "otis", "topology.otis", None),
    ("constructive", "key_edges", "constructive.key_edges", "key_edges"),
    ("constructive", "propagate", "engine.propagate", "propagate"),
    ("constructive", "decide", "engine.search", "search"),
    ("constructive", "is_hamiltonian_cycle", "graph.verify", None),
    ("engine", "is_hamiltonian_cycle", "graph.verify", None),
    ("engine.EdgeAssignment", "for_graph", "engine.index", None),
    ("engine.EdgeAssignment", "seed_delete", "engine.seed", None),
    ("engine.EdgeAssignment", "seed_force", "engine.seed", None),
]


class Tracer:
    """In-memory spans and per-command counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.measure_peak = False
        self.search_peak_mb = 0.0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def install(self, otisham) -> None:
        for owner_path, attr, name, hook in WRAPS:
            owner = otisham
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            wrapper = self._wrap(getattr(owner, attr), name, hook)
            if isinstance(inspect.getattr_static(owner, attr), classmethod):
                wrapper = staticmethod(wrapper)  # the bound classmethod is wrapped
            setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, hook: str | None):
        def wrapper(*args, **kwargs):
            peak = hook in ("search", "decide") and self.measure_peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
                if peak:
                    self.search_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if hook:
                self._count(hook, result)
            return result

        return wrapper

    def _count(self, hook: str, result) -> None:
        c = self.counts
        if hook == "key_edges":
            c["key_edges"] += len(result)
        elif hook == "propagate":
            c["undecided_after_seed"] += getattr(result, "n_undecided", 0)
        elif hook == "build":
            c["steps"] += getattr(result, "steps", 0)
        else:  # a search: the residual one of a build, or a whole decide command
            c["search_nodes"] += result.nodes
            c["search_depth"] = max(c["search_depth"], result.max_depth)
            if hook == "decide":  # a build's search steps are in BuildResult.steps
                c["steps"] += result.steps
