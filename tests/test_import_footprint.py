"""Which scipy modules a process loads: none for full-data work, and
scipy.sparse only once a sparse mask is built."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    import numpy as np

    import bssmf
    import bssmf.cli
    from bssmf import ModelVariant, ObservationMask, SolverConfig, solve
    from bssmf.identifiability import match_and_score
    from bssmf.io_formats import write_factors
    from bssmf.preprocessing import infer_bounds

    def loaded(name):
        return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(12, 9))
    variant = ModelVariant.bssmf(infer_bounds(X))
    config = SolverConfig(rank=3, max_outer=5, seed=0)
    factors, report = solve(X, ObservationMask.full(*X.shape), variant, config)
    match_and_score(factors.W, factors.W[:, ::-1])
    with tempfile.TemporaryDirectory() as tmp:
        write_factors(tmp + "/fit_", factors, report, config, variant, variant.bounds)
    assert not loaded("scipy.optimize"), loaded("scipy.optimize")
    assert not loaded("scipy.sparse"), loaded("scipy.sparse")

    ObservationMask(3, 4, [0, 2], [1, 3], [1.0, 0.5])
    assert loaded("scipy.sparse")
    assert not loaded("scipy.optimize"), loaded("scipy.optimize")
    """
)


def test_scipy_loads_only_with_a_sparse_mask():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
