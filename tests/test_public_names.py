"""The names other code reaches by attribute lookup must keep resolving:
the traced benchmark wraps every function in `perfbench/spans.py` TARGETS
by name, and `__all__` is the package's declared surface."""

import importlib
import importlib.util
from pathlib import Path

import spatialspn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_targets_and_public_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}" for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"spatialspn.{module}"), name, None))
    ]
    missing += [name for name in spatialspn.__all__ if not hasattr(spatialspn, name)]
    assert not missing
