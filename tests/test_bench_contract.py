"""The benchmark's view of the library still holds.

Every per-layer call count in BENCHMARK.json names a public library function:
the traced benchmark run wraps public functions by name, and a renamed or
privatized function would otherwise only show up as a crash of that run. The
completion workload's ratings pipeline (file, ``read_movielens``, ``split``,
``evaluate_fold``) runs once at a tiny shape, so a break in what it reads of
the library (``item_map``, ``Fold.X_train``, the mask fields) shows up here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"


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


def test_completion_workload_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    # 120 users x 200 items, 30 ratings each, rank 3, 2 outer passes
    workload = workloads.Completion("complete-100k", (120, 200, 3600), "tsv", 3, 2, 1)
    workload.prepare(seed=1, workdir=str(tmp_path))
    sample, score = workload.iteration(0)
    score()
    # quality is far from the ml-100k reference at this shape and is not checked
    quality = checks.quality_problems(sample.quality, workload.reference)
    assert [p for p in sample.problems if p not in quality] == []
    assert sample.outer_iters == 2
