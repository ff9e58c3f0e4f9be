"""The traced benchmark run (``bench/run.py --trace 1``) wraps calls
between otisham modules by name, from the list ``WRAPS`` in
``bench/spans.py``.  A name that a change to ``src/`` removes or moves
would break that run, so every one must still resolve."""

import importlib
import importlib.util
from pathlib import Path

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
