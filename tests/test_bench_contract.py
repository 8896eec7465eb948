"""Every per-layer call count in BENCHMARK.json names a public library function.

The traced benchmark run wraps public functions by name; a renamed or
privatized function would otherwise only show up as a crash of that run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _call_layers():
    metrics = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    return sorted(m["name"][: -len(".calls")] for m in metrics
                  if m["name"].endswith(".calls"))


@pytest.mark.parametrize("layer", _call_layers())
def test_layer_is_public_function(layer):
    module_name, fname = layer.split(".")
    module = importlib.import_module(f"bssmf.{module_name}")
    fn = getattr(module, fname, None)
    assert not fname.startswith("_")
    assert inspect.isfunction(fn), f"bssmf.{layer} is not a function"
    assert fn.__module__ == module.__name__, f"bssmf.{layer} is defined elsewhere"
