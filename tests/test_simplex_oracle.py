"""The support-enumeration oracle picks the exact projection's support, also
where nearby candidates are closer than the rounding of their distances."""

import numpy as np
import pytest

from bssmf.projections import project_simplex_columns, simplex_projection_oracle


def assert_agrees(v):
    v = np.asarray(v, dtype=np.float64)
    r = v.size
    tol = 16 * r * np.finfo(float).eps * max(1.0, float(np.max(np.abs(v))))
    got = simplex_projection_oracle(v)
    assert np.max(np.abs(got - project_simplex_columns(v))) <= tol, (v, got)


def test_near_tie_counterexample():
    v = [5.0, 4.0000001, 4.0, 4.0, 4.0, 4.0]
    assert_agrees(v)
    assert simplex_projection_oracle(v)[1] == pytest.approx(5e-8, rel=1e-6)


def test_tie_heavy_columns():
    rng = np.random.default_rng(9)
    values = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    for _ in range(300):
        r = int(rng.integers(1, 9))
        v = rng.choice(values, size=r) + rng.choice([0.0, 1e-7, -3e-8], size=r)
        assert_agrees(v + rng.choice([0.0, 4.0, -1e3]))
