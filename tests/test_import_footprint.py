"""Which scipy modules a process loads: none for full-data work or for
building, reading, splitting and checking sparse masks, and only the
compiled extension scipy.sparse._sparsetools once a sparse solve runs, with
neither the scipy.sparse package nor scipy._lib. A later import of
scipy.sparse finds that extension and works."""

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
    from bssmf.evaluation import RatingsDataset, SplitSpec, split
    from bssmf.identifiability import match_and_score
    from bssmf.io_formats import read_matrix_market, write_factors
    from bssmf.preprocessing import infer_bounds

    def loaded(name):
        return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

    def no_scipy():
        assert not loaded("scipy"), loaded("scipy")

    rng = np.random.default_rng(0)
    X = rng.uniform(size=(12, 9))
    variant = ModelVariant.bssmf(infer_bounds(X))
    config = SolverConfig(rank=3, max_outer=5, seed=0)
    factors, report = solve(X, ObservationMask.full(*X.shape), variant, config)
    match_and_score(factors.W, factors.W[:, ::-1])
    with tempfile.TemporaryDirectory() as tmp:
        write_factors(tmp + "/fit_", factors, report, config, variant, variant.bounds)
        no_scipy()

        # sparse data as data: a mask, a MatrixMarket file, a split, their checks
        M = ObservationMask(3, 4, [0, 2, 1], [1, 3, 3], [1.0, 0.5, 1.0], [0.1, 0.2, 0.3])
        M.sweep(M.values)
        with open(tmp + "/x.mtx", "w") as f:
            f.write("%%MatrixMarket matrix coordinate real general\\n3 4 3\\n"
                    "1 2 0.1\\n3 4 0.2\\n2 4 0.3\\n")
        x, M = read_matrix_market(tmp + "/x.mtx")
        users = np.repeat(np.arange(10), 6)
        items = np.tile(np.arange(6), 10)
        fold = split(RatingsDataset(10, 6, users, items, 1.0 + (users + items) % 5),
                     SplitSpec(test_user_count=3, min_ratings_per_item=1, seed=0))
        infer_bounds(fold.M_train.values, fold.M_train)
        no_scipy()

    solve(x, M, ModelVariant.bssmf(infer_bounds(x, M)), config)
    assert loaded("scipy") == ["scipy.sparse._sparsetools"], loaded("scipy")
    assert "scipy.sparse" not in sys.modules and not loaded("scipy._lib")

    import bssmf.matrixcore as mc
    import scipy.sparse as sp

    assert mc._sparsetools() is sp._compressed._sparsetools
    W, H = rng.uniform(size=(3, 2)), rng.uniform(size=(2, 4))
    R = mc.masked_residual(x, W, H, M)
    assert isinstance(R, sp.csc_matrix)
    assert np.array_equal(mc.gradient_W(x, W, H, M), -(R @ H.T))
    assert np.array_equal(mc.gradient_H(x, W, H, M), -(R.T @ W).T)
    """
)


def test_scipy_loads_only_with_a_sparse_solve():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
