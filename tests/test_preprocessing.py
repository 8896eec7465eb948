import numpy as np
import pytest

from bssmf.matrixcore import NonFiniteDataError, ObservationMask, ShapeError
from bssmf.preprocessing import infer_bounds, rescale_rows_to_unit, unrescale_rows
from bssmf.projections import BoundsVector, project_simplex_columns

from conftest import EXAMPLE_X


class TestInferBounds:
    def test_ratings_matrix(self):
        X = np.array([[1.0, 3, 5], [5.0, 1, 2]])
        b = infer_bounds(X)
        assert np.array_equal(b.lower, [1, 1]) and np.array_equal(b.upper, [5, 5])

    def test_constant_row_degenerate(self):
        X = np.array([[2.0, 2, 2], [0.0, 1, 2]])
        b = infer_bounds(X)
        assert list(b.degenerate_rows()) == [0]

    def test_example_matrix(self):
        b = infer_bounds(EXAMPLE_X)
        assert np.array_equal(b.lower, np.full(6, 2.0))
        assert np.array_equal(b.upper, np.full(6, 11.0))

    def test_masked(self):
        X = np.array([[1.0, 100.0], [2.0, 3.0]])
        M = ObservationMask(2, 2, [0, 1, 1], [0, 0, 1], np.ones(3))
        b = infer_bounds(X, M)
        assert b.lower[0] == b.upper[0] == 1.0  # the 100 is unobserved

    def test_unobserved_row_error(self):
        X = np.ones((2, 2))
        M = ObservationMask(2, 2, [0], [0], [1.0])
        with pytest.raises(ValueError, match="row 1"):
            infer_bounds(X, M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("full", [True, False])
    def test_nonfinite_entry_is_the_solves_error(self, bad, full):
        # not "bounds must not contain NaN": the data is at fault, not the bounds
        X = np.full((3, 4), 0.5)
        X[1, 2] = bad
        M = ObservationMask.full(3, 4) if full else ObservationMask(3, 4, [0, 1, 2], [0, 2, 3],
                                                                     np.ones(3))
        with pytest.raises(NonFiniteDataError, match="non-finite") as info:
            infer_bounds(X, M)
        assert isinstance(info.value, ValueError) and isinstance(info.value, FloatingPointError)

    def test_bounds_contain_observed(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-5, 5, size=(6, 8))
        b = infer_bounds(X)
        assert np.all(X >= b.lower[:, None]) and np.all(X <= b.upper[:, None])


class TestRowRescale:
    def test_spanning_row_maps_to_unit(self):
        X = np.array([[2.0, 5.0, 11.0]])
        b = BoundsVector([2.0], [11.0])
        Xp, _ = rescale_rows_to_unit(X, b)
        assert Xp[0, 0] == 0.0 and Xp[0, 2] == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(1, 5, size=(5, 7))
        b = BoundsVector.constant(5, 1, 5)
        Xp, rec = rescale_rows_to_unit(X, b)
        assert np.allclose(unrescale_rows(Xp, rec), X, rtol=1e-12)

    def test_degenerate_row_rejected(self):
        X = np.ones((2, 3))
        with pytest.raises(ValueError, match="constant rows"):
            rescale_rows_to_unit(X, BoundsVector([0.0, 1.0], [1.0, 1.0]))

    def test_bounds_of_another_length_rejected(self):
        # one row of bounds would broadcast over every row of X
        X = np.arange(15.0).reshape(5, 3)
        with pytest.raises(ShapeError, match="5 rows, bounds have 1"):
            rescale_rows_to_unit(X, BoundsVector([0.0], [20.0]))
        _, rec = rescale_rows_to_unit(X, BoundsVector.constant(5, 0, 20))
        with pytest.raises(ShapeError, match="3 rows, bounds have 5"):
            unrescale_rows(X[:3], rec)
        with pytest.raises(ShapeError, match="5 rows, bounds have 1"):
            unrescale_rows(X, BoundsVector([0.0], [20.0]))

    def test_factorization_correspondence(self):
        # exact instances map through: X' = W' H with W' = (W - a e^T)/((b-a) e^T)
        rng = np.random.default_rng(2)
        for _ in range(10):
            m, r, n = 6, 3, 8
            a = rng.uniform(-2, 0, size=m)
            b = a + rng.uniform(0.5, 3, size=m)
            W = a[:, None] + (b - a)[:, None] * rng.uniform(size=(m, r))
            H = project_simplex_columns(rng.uniform(size=(r, n)))
            X = W @ H
            bounds = BoundsVector(a, b)
            Xp, _ = rescale_rows_to_unit(X, bounds)
            Wp = (W - a[:, None]) / (b - a)[:, None]
            assert np.allclose(Xp, Wp @ H, atol=1e-12)
            assert Wp.min() >= -1e-12 and Wp.max() <= 1 + 1e-12
