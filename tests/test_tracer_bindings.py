"""The benchmark's tracer (perfbench/spans.py) wraps module-level bindings of
perml1 by name; each must exist and be callable, or installing it fails."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("owner, attr, name", [entry[:3] for entry in load_spans().bindings()])
def test_every_traced_binding_is_callable(owner, attr, name):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}, traced as {name}, is missing"
