import numpy as np
import pytest

from bssmf.matrixcore import ObservationMask
from bssmf.preprocessing import (
    center,
    infer_bounds,
    remove_constant_rows,
    reinsert_constant_rows,
    rescale_columns_to_unit,
    rescale_rows_to_unit,
    uncenter,
    unrescale_columns,
    unrescale_rows,
)
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


class TestRemoveConstantRows:
    def test_no_constant_rows_identity(self):
        X = np.array([[0.0, 1.0], [2.0, 5.0]])
        Xr, rmap = remove_constant_rows(X)
        assert np.array_equal(Xr, X) and rmap["keep"] == [0, 1]

    def test_constant_row_reinserted(self):
        X = np.array([[3.0, 3.0], [0.0, 1.0]])
        Xr, rmap = remove_constant_rows(X)
        W = reinsert_constant_rows(np.array([[0.5, 0.7]]), rmap)
        assert np.array_equal(W[0], [3.0, 3.0])
        assert np.array_equal(W[1], [0.5, 0.7])

    def test_strict_tolerance(self):
        X = np.array([[0.0, 1e-16], [0.0, 1.0]])
        Xr, _ = remove_constant_rows(X, tol=0.0)
        assert Xr.shape[0] == 2  # 1e-16 spread > 0: kept

    def test_masked_rows(self):
        # only observed cells count: row 0 is constant where observed, row 2
        # has no observed cell, row 1 varies
        X = np.array([[4.0, 9.0, 4.0], [0.0, 1.0, 2.0], [7.0, 8.0, 9.0]])
        M = ObservationMask(3, 3, [0, 1, 0, 1], [2, 1, 0, 0], np.ones(4))
        Xr, rmap = remove_constant_rows(X, M)
        assert np.array_equal(Xr, X[[1], :])
        assert rmap["keep"] == [1] and rmap["dropped"] == {0: 4.0, 2: 0.0}

    def test_all_constant_error(self):
        with pytest.raises(ValueError, match="all rows"):
            remove_constant_rows(np.ones((3, 2)))


class TestColumnRescale:
    def test_touching_column_unchanged(self):
        X = np.array([[0.0, 10.0], [0.5, 20.0], [1.0, 30.0]])
        Xp, _ = rescale_columns_to_unit(X)
        assert np.allclose(Xp[:, 0], [0, 0.5, 1])
        assert np.allclose(Xp[:, 1], [0, 0.5, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(6, 4)) * 100
        Xp, rec = rescale_columns_to_unit(X)
        assert np.allclose(unrescale_columns(Xp, rec), X, rtol=1e-12)

    def test_constant_column_error(self):
        X = np.array([[1.0, 1.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="column 1"):
            rescale_columns_to_unit(X)


class TestCenter:
    def test_constant_matrix(self):
        Xp, c, _ = center(np.full((3, 3), 3.0))
        assert c == 3.0 and np.all(Xp == 0.0)

    def test_uniform_ratings(self):
        X = np.array([[1.0, 2, 3, 4, 5]])
        _, c, _ = center(X)
        assert c == 3.0

    def test_masked_mean(self):
        X = np.array([[1.0, 100.0], [5.0, 100.0]])
        M = ObservationMask(2, 2, [0, 1], [0, 0], np.ones(2))
        _, c, _ = center(X, M)
        assert c == 3.0

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(4, 5))
        Xp, _, rec = center(X)
        assert np.allclose(uncenter(Xp, rec), X, rtol=1e-12)

    def test_empty_mask_error(self):
        M = ObservationMask(2, 2)
        with pytest.raises(ValueError):
            center(np.ones((2, 2)), M)
