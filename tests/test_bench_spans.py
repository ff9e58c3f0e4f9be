"""The traced benchmark run (``bench/run.py --trace 1``) wraps calls
between otisham modules by name, from the list ``WRAPS`` in
``bench/spans.py``.  A name that a change to ``src/`` removes or moves
would break that run, so every one must still resolve.  The run also
reads counts off the wrapped calls' results, some through
``getattr(..., 0)``, so a renamed field would zero a per-layer metric
without an error; those fields are pinned here too."""

import importlib
import importlib.util
from pathlib import Path

from otisham.constructive import BuildResult, build_ham_cycle
from otisham.engine import EdgeAssignment, HamVerdict, decide, propagate
from otisham.topology import gen_complete

from conftest import table_seed

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """``bench/spans.py`` as a module, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_call_resolves():
    wraps = load_spans().WRAPS
    assert wraps
    missing = []
    for owner_path, attr, _, _ in wraps:
        module, *rest = owner_path.split(".")
        owner = importlib.import_module(f"otisham.{module}")
        for part in rest:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_counted_result_fields_exist_as_ints():
    # the fields Tracer._count reads: n_undecided off propagate's result,
    # steps off a build, nodes, max_depth and steps off a search verdict
    _, seed = table_seed(7, 7)  # its table fixpoint leaves edges open
    res = propagate(seed)
    assert isinstance(res, EdgeAssignment)
    assert type(res.n_undecided) is int and res.n_undecided > 0
    build = build_ham_cycle(7, 7)
    assert isinstance(build, BuildResult)
    assert type(build.steps) is int and build.steps > 0
    verdict = decide(gen_complete(5))
    assert isinstance(verdict, HamVerdict)
    for field in ("nodes", "max_depth", "steps"):
        assert type(getattr(verdict, field)) is int, field
    assert verdict.nodes > 0
