"""The names other code reaches by attribute lookup must keep resolving:
the traced benchmark wraps every function in `perfbench/spans.py` TARGETS
by name, and `__all__` is the package's declared surface. The benchmark's
file is only read: run from source, it leaves no bytecode beside it."""

import importlib
import runpy
from pathlib import Path

import spatialspn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_targets_and_public_names_resolve():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    missing = [
        f"{module}.{name}" for module, name, _ in targets
        if not callable(getattr(importlib.import_module(f"spatialspn.{module}"), name, None))
    ]
    missing += [name for name in spatialspn.__all__ if not hasattr(spatialspn, name)]
    assert not missing
