"""The public names the package exports and the benchmark tracer rebinds.

The tracer in ``bench/trace.py`` wraps functions by name; a rename or
deletion there would only surface as a crash of the benchmark run, so the
names are checked here. The tracer file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import coherray

TRACE_FILE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def traced_spans():
    """(module, function) pairs listed in the tracer's SPANS table."""
    tree = ast.parse(TRACE_FILE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPANS" for target in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in table.items() for name in names]
    raise AssertionError(f"no SPANS table in {TRACE_FILE}")


def test_every_exported_name_resolves():
    missing = [name for name in coherray.__all__ if not hasattr(coherray, name)]
    assert not missing, f"coherray.__all__ lists undefined names {missing}"


def test_every_traced_function_exists():
    spans = traced_spans()
    assert spans
    missing = [
        f"coherray.{layer}.{name}"
        for layer, name in spans
        if not callable(getattr(importlib.import_module(f"coherray.{layer}"), name, None))
    ]
    assert not missing, f"bench/trace.py wraps functions that are gone: {missing}"
