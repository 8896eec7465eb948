import importlib.util
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bssmf.matrixcore as mc
from bssmf.matrixcore import (
    DuplicateCellError,
    ObservationMask,
    ShapeError,
    Workspace,
    gradient_H,
    gradient_W,
    masked_residual,
    objective,
    product_at,
    spectral_norm,
    step_map,
)

from conftest import EXAMPLE_H, EXAMPLE_W, EXAMPLE_X, random_mask


def triple_loop_objective(X, W, H, M):
    """Independent oracle: naive loops over observed cells."""
    Wd = np.zeros((M.rows, M.cols))
    Wd[M.row_idx, M.col_idx] = M.weights
    total = 0.0
    for j in range(X.shape[1]):
        for i in range(X.shape[0]):
            if Wd[i, j] > 0:
                pred = sum(W[i, k] * H[k, j] for k in range(W.shape[1]))
                total += (Wd[i, j] * (X[i, j] - pred)) ** 2
    return 0.5 * total


class TestMaskedResidual:
    def test_exact_factorization_zero(self):
        rng = np.random.default_rng(1)
        W = rng.uniform(size=(5, 2))
        H = rng.uniform(size=(2, 4))
        X = W @ H
        M = random_mask(rng, 5, 4)
        R = masked_residual(X, W, H, M)
        assert np.allclose(R.toarray(), 0, atol=1e-14)

    def test_empty_mask(self):
        X = np.ones((3, 3))
        M = ObservationMask(3, 3)
        R = masked_residual(X, np.ones((3, 2)), np.ones((2, 3)), M)
        assert R.nnz == 0
        assert objective(X, np.ones((3, 2)), np.ones((2, 3)), M) == 0.0

    def test_example_instance_zero(self):
        M = ObservationMask.full(6, 6)
        R = masked_residual(EXAMPLE_X, EXAMPLE_W, EXAMPLE_H, M)
        assert np.array_equal(R, np.zeros((6, 6)))

    def test_full_mask_matches_dense(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(4, 5))
        W = rng.uniform(size=(4, 2))
        H = rng.uniform(size=(2, 5))
        R = masked_residual(X, W, H, ObservationMask.full(4, 5))
        assert np.allclose(R, X - W @ H)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            masked_residual(
                np.ones((3, 3)), np.ones((4, 2)), np.ones((2, 3)),
                ObservationMask.full(3, 3),
            )


class TestObjective:
    def test_scalar_case(self):
        X = np.array([[2.0]])
        assert objective(X, np.array([[1.0]]), np.array([[1.0]]),
                         ObservationMask.full(1, 1)) == 0.5

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            X = rng.uniform(size=(5, 4))
            W = rng.uniform(size=(5, 3))
            H = rng.uniform(size=(3, 4))
            M = random_mask(rng, 5, 4, weighted=True)
            got = objective(X, W, H, M)
            want = triple_loop_objective(X, W, H, M)
            assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(6, 6))
        W = rng.uniform(size=(6, 2))
        H = rng.uniform(size=(2, 6))
        assert objective(X, W, H, ObservationMask.full(6, 6)) >= 0

    def test_refuses_a_workspace_of_another_mask_or_data(self):
        rng = np.random.default_rng(27)
        X, W, H = rng.uniform(size=(3, 3)), rng.uniform(size=(3, 2)), rng.uniform(size=(2, 3))
        M1 = ObservationMask(3, 3, [0, 1, 2], [0, 1, 2], np.ones(3))
        M2 = ObservationMask(3, 3, [0, 1, 2], [2, 0, 1], np.ones(3))
        with pytest.raises(ValueError, match="another mask"):
            objective(X, W, H, M2, Workspace(X, M1))  # once summed M1's cells silently
        for M in (M1, ObservationMask.full(3, 3)):
            with pytest.raises(ValueError, match="other data"):
                objective(X, W, H, M, Workspace(X + 1.0, M))
            # the same data in another array is the same workspace's
            assert objective(X.copy(), W, H, M, Workspace(X, M)) == objective(X, W, H, M)


class TestGradients:
    def test_zero_at_exact_factorization(self):
        rng = np.random.default_rng(5)
        W = rng.uniform(size=(4, 2))
        H = rng.uniform(size=(2, 3))
        X = W @ H
        M = ObservationMask.full(4, 3)
        assert np.allclose(gradient_W(X, W, H, M), 0, atol=1e-13)
        assert np.allclose(gradient_H(X, W, H, M), 0, atol=1e-13)

    def test_empty_mask_zero(self):
        M = ObservationMask(4, 3)
        G = gradient_W(np.ones((4, 3)), np.ones((4, 2)), np.ones((2, 3)), M)
        assert np.array_equal(G, np.zeros((4, 2)))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_finite_differences(self, weighted):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(4, 3))
        W = rng.uniform(size=(4, 2))
        H = rng.uniform(size=(2, 3))
        M = random_mask(rng, 4, 3, weighted=weighted)
        h = 1e-6
        GW = gradient_W(X, W, H, M)
        for i in range(4):
            for k in range(2):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, k] += h
                Wm[i, k] -= h
                fd = (objective(X, Wp, H, M) - objective(X, Wm, H, M)) / (2 * h)
                assert GW[i, k] == pytest.approx(fd, abs=1e-5)
        GH = gradient_H(X, W, H, M)
        for k in range(2):
            for j in range(3):
                Hp, Hm = H.copy(), H.copy()
                Hp[k, j] += h
                Hm[k, j] -= h
                fd = (objective(X, W, Hp, M) - objective(X, W, Hm, M)) / (2 * h)
                assert GH[k, j] == pytest.approx(fd, abs=1e-5)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-8)

    def test_rank_one_gram(self):
        W = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert spectral_norm(W.T @ W) == pytest.approx(25.0, rel=1e-9)

    def test_lower_bounds_rayleigh(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(size=(5, 5))
        G = A.T @ A
        lam = spectral_norm(G)
        for _ in range(20):
            v = rng.standard_normal(5)
            assert lam >= (v @ G @ v) / (v @ v) - 1e-8 * lam

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            spectral_norm(np.ones((2, 3)))

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entry_gives_no_finite_norm(self, n, bad):
        # LAPACK does not converge on an all-inf Gram matrix of order 3 or more
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(spectral_norm(np.full((n, n), bad)))


class TestMask:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationMask(2, 2, [0, 0], [0, 0], [1.0, 0.5])
        with pytest.raises(DuplicateCellError) as err:
            ObservationMask(3, 2, [2, 0, 2], [1, 0, 1], [1.0, 1.0, 1.0])
        assert (err.value.row, err.value.col) == (2, 1)

    def test_weight_range(self):
        with pytest.raises(ValueError):
            ObservationMask(2, 2, [0], [0], [1.5])
        with pytest.raises(ValueError):
            ObservationMask(2, 2, [0], [0], [0.0])
        with pytest.raises(ValueError):
            ObservationMask(2, 2, [0], [0], [np.nan])

    def test_full_sentinel(self):
        M = ObservationMask.full(3, 4)
        assert M.is_full and M.nnz == 12

    @pytest.mark.parametrize("rows, cols", [(3.5, 4), (3, 4.0), (True, 4), (3, np.float64(4))])
    def test_shape_must_be_integers(self, rows, cols):
        """A float shape was stored truncated but checked against as given:
        (3.5, 4) took row index 3, and a sparse solve on it crashed the process."""
        with pytest.raises(ShapeError, match="mask shape must be integers"):
            ObservationMask(rows, cols, [3], [0], [1.0], values=[2.0])
        with pytest.raises(ShapeError, match="mask shape must be integers"):
            ObservationMask.full(rows, cols)

    def test_numpy_integer_shape_is_stored_as_int(self):
        M = ObservationMask(np.int64(3), np.int32(4), [2], [3], [1.0])
        assert (type(M.rows), type(M.cols), M.rows, M.cols) == (int, int, 3, 4)

    @pytest.mark.parametrize("rows, cols", [([0.9], [1]), ([0], [1.2]), ([True], [1]),
                                            ([0], np.array([False]))])
    def test_indices_must_be_integers(self, rows, cols):
        """[0.9], [1.2] named cell (0, 1); a bool index named row or column 0 or 1."""
        with pytest.raises(ShapeError, match="indices must be integers"):
            ObservationMask(3, 4, rows, cols, [1.0])

    def test_indices_must_be_one_dimensional(self):
        """2 x 2 index arrays were sorted row by row into a 2 x 2 x 2 mask."""
        with pytest.raises(ShapeError, match="1-D"):
            ObservationMask(3, 4, [[0, 1], [2, 0]], [[1, 2], [3, 0]], np.ones((2, 2)))
        with pytest.raises(ShapeError, match="1-D"):
            product_at(np.ones((3, 1)), np.ones((1, 4)), [[0]], [[1]])

    def test_empty_index_lists_stay_valid(self):
        M = ObservationMask(3, 4, [], [], [])
        assert M.nnz == 0 and M.row_idx.dtype == M.col_idx.dtype == np.intp

    @pytest.mark.parametrize("rows, cols", [([0, 2], [1, 3]), ([2, 0], [3, 1])])
    def test_cells_are_read_only(self, rows, cols):
        """Canonical and shuffled cells alike: the kernels index through them unchecked."""
        M = ObservationMask(3, 4, rows, cols, [1.0, 0.5], [0.25, 0.75])
        for idx in (M.row_idx, M.col_idx):
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 99
        M.values[0] = 1.5  # the data stays the caller's to write


@st.composite
def masked_problems(draw):
    """Shape, distinct cells in random order, weights in (0, 1], a permutation
    of the cells, and a seed for X, W and H."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    flat = draw(st.lists(st.integers(0, m * n - 1), min_size=1, max_size=m * n,
                         unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(flat),
                            max_size=len(flat)))
    perm = draw(st.permutations(range(len(flat))))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, n, np.array(flat) // n, np.array(flat) % n, np.array(weights), perm, seed


def _factors(seed, m, n):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    return rng.uniform(size=(m, n)), rng.uniform(size=(m, r)), rng.uniform(size=(r, n))


class TestCanonicalMask:
    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_permutation_invariant(self, problem):
        m, n, rows, cols, w, perm, seed = problem
        M1 = ObservationMask(m, n, rows, cols, w)
        M2 = ObservationMask(m, n, rows[perm], cols[perm], w[perm])
        assert np.array_equal(M1.row_idx, M2.row_idx)
        assert np.array_equal(M1.col_idx, M2.col_idx)
        assert np.array_equal(M1.weights, M2.weights)
        X, W, H = _factors(seed, m, n)
        assert objective(X, W, H, M1) == objective(X, W, H, M2)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems(), st.booleans())
    def test_canonical_cells_give_the_shuffled_cells_mask_in_copies(self, problem, with_values):
        m, n, rows, cols, w, perm, seed = problem
        values = np.random.default_rng(seed).uniform(size=rows.size) if with_values else None
        canon = np.argsort(cols * m + rows)
        cells = [a[canon].copy() if a is not None else None for a in (rows, cols, w, values)]
        M = ObservationMask(m, n, *cells)
        shuffled = ObservationMask(m, n, *(a[perm] if a is not None else None
                                           for a in (rows, cols, w, values)))
        fields = ("row_idx", "col_idx", "weights", "values")

        def same(A, B):
            for name in fields:
                a, b = getattr(A, name), getattr(B, name)
                assert (a is None and b is None) or (
                    np.array_equal(a, b) and a.dtype == b.dtype and a.shape == b.shape)

        same(M, shuffled)
        assert [a.dtype for a in (M.row_idx, M.col_idx, M.weights)] == [
            np.intp, np.intp, np.float64]
        for a in cells:  # the mask keeps no view of the caller's arrays
            if a is not None:
                a[...] = 0
        same(M, shuffled)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_cells_in_column_major_order(self, problem):
        m, n, rows, cols, w, _, _ = problem
        M = ObservationMask(m, n, rows, cols, w)
        key = M.col_idx * m + M.row_idx
        assert np.all(np.diff(key) > 0)
        dense = np.zeros((m, n))
        dense[rows, cols] = w
        assert np.array_equal(M.weights, dense[M.row_idx, M.col_idx])

    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_objective_matches_triple_loop(self, problem):
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, w)
        X, W, H = _factors(seed, m, n)
        want = triple_loop_objective(X, W, H, M)
        assert objective(X, W, H, M) == pytest.approx(want, rel=1e-12, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_row_extrema_match_loop(self, problem):
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, w)
        X, _, _ = _factors(seed, m, n)
        lo, hi = M.row_extrema(X)
        for i in range(m):
            vals = [X[i, j] for r, j in zip(rows, cols) if r == i]
            assert lo[i] == (min(vals) if vals else np.inf)
            assert hi[i] == (max(vals) if vals else -np.inf)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_observed_any_memory_layout(self, problem):
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, w)
        X, _, _ = _factors(seed, m, n)
        want = np.array([X[i, j] for i, j in zip(M.row_idx, M.col_idx)])
        for A in (X, np.asfortranarray(X), np.ascontiguousarray(X.T).T):
            assert np.array_equal(M.observed(A), want)
        with pytest.raises(ShapeError):
            M.observed(np.zeros((m, n + 1)))

    @settings(max_examples=60, deadline=None)
    @given(masked_problems(), st.booleans())
    def test_values_follow_their_cells(self, problem, unit):
        m, n, rows, cols, w, perm, seed = problem
        rows, cols = rows[perm], cols[perm]
        w = np.ones(rows.size) if unit else w[perm]
        X, _, _ = _factors(seed, m, n)
        values = X[rows, cols]
        M = ObservationMask(m, n, rows, cols, w, values)
        given_at = dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))
        for k, (i, j) in enumerate(zip(M.row_idx.tolist(), M.col_idx.tolist())):
            assert M.values[k] == given_at[i, j]
        assert np.array_equal(M.observed(X), M.values)
        assert M.observed(M.values) is M.values
        for wrong in (np.zeros(rows.size - 1), np.zeros(rows.size + 1),
                      np.zeros((rows.size, 1))):
            with pytest.raises(ShapeError):
                ObservationMask(m, n, rows, cols, w, wrong)
        assert ObservationMask(m, n, rows, cols, w).values is None
        assert ObservationMask.full(m, n).values is None

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_full_mask_observed_is_no_copy(self, m, n):
        X = np.arange(float(m * n)).reshape(m, n)
        M = ObservationMask.full(m, n)
        assert M.observed(X) is X and np.shares_memory(M.observed(X), X)
        lo, hi = M.row_extrema(X)
        assert np.array_equal(lo, X[:, 0]) and np.array_equal(hi, X[:, -1])


def loop_gradients(X, W, H, M):
    """Independent oracle: -(MoMo(X-WH)) H^T and -W^T (MoMo(X-WH)), with the
    weighted residual filled into zeros one observed cell at a time."""
    m, n = X.shape
    if M.is_full:
        rows, cols = np.divmod(np.arange(m * n), n)
        weights = np.ones(m * n)
    else:
        rows, cols, weights = M.row_idx, M.col_idx, M.weights
    S = np.zeros((m, n))
    for i, j, w in zip(rows, cols, weights):
        S[i, j] = w * w * (X[i, j] - W[i, :] @ H[:, j])
    return -S @ H.T, -W.T @ S


@st.composite
def gradient_problems(draw):
    """A full or sparse weighted mask, a rank and a seed for the data, the
    frozen factors and three free-factor points."""
    m, n, rows, cols, w, _, seed = draw(masked_problems())
    full = draw(st.booleans())
    M = ObservationMask.full(m, n) if full else ObservationMask(m, n, rows, cols, w)
    return M, draw(st.integers(1, 5)), seed


class TestBlockGradient:
    @settings(max_examples=80, deadline=None)
    @given(gradient_problems())
    def test_matches_loop_oracle_at_several_points(self, problem):
        M, r, seed = problem
        rng = np.random.default_rng(seed)
        m, n = M.rows, M.cols
        X = rng.uniform(-2, 2, size=(m, n))
        W0, H0 = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        grad_W = lambda W: gradient_W(X, W, H0, M)
        grad_H = lambda H: gradient_H(X, W0, H, M)
        Ws = [rng.uniform(-1, 1, size=(m, r)) for _ in range(3)]
        Hs = [rng.uniform(-1, 1, size=(r, n)) for _ in range(3)]
        first_W, first_H = grad_W(Ws[0]), grad_H(Hs[0])
        for W, H in zip(Ws, Hs):
            want_W = loop_gradients(X, W, H0, M)[0]
            want_H = loop_gradients(X, W0, H, M)[1]
            assert grad_W(W) == pytest.approx(want_W, rel=1e-12, abs=1e-13)
            assert grad_H(H) == pytest.approx(want_H, rel=1e-12, abs=1e-13)
        # the cached work is not disturbed by later calls
        assert np.array_equal(grad_W(Ws[0]), first_W)
        assert np.array_equal(grad_H(Hs[0]), first_H)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems(), st.integers(1, 5))
    def test_product_at_matches_dense_product(self, problem, r):
        m, n, rows, cols, _, _, seed = problem
        rng = np.random.default_rng(seed)
        A, B = rng.uniform(-1, 1, size=(r, m)), rng.uniform(-1, 1, size=(n, r))
        for W, H in ((A.T, B.T), (np.ascontiguousarray(A.T), np.ascontiguousarray(B.T))):
            want = (W @ H)[rows, cols]
            assert product_at(W, H, rows, cols) == pytest.approx(want, rel=1e-12, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(gradient_problems())
    def test_result_is_fresh_on_every_call(self, problem):
        """The solver's step divides and subtracts in the gradient it gets
        back, so that array must be no buffer the gradient keeps."""
        M, r, seed = problem
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(M.rows, M.cols))
        W, H = rng.uniform(size=(M.rows, r)), rng.uniform(size=(r, M.cols))
        for grad, A in ((lambda A: gradient_W(X, A, H, M), W),
                        (lambda A: gradient_H(X, W, A, M), H)):
            first = grad(A)
            want = first.copy()
            first[...] = np.nan
            assert np.array_equal(grad(A), want)
            assert np.all(np.isnan(first))  # the second call wrote elsewhere

    def test_rejects_bad_side_and_shapes(self):
        X, M = np.ones((4, 3)), ObservationMask.full(4, 3)
        with pytest.raises(ValueError, match="side"):
            step_map(Workspace(X, M), np.ones((2, 3)), "V", 1.0)
        with pytest.raises(ShapeError):
            gradient_W(X, np.ones((4, 2)), np.ones((2, 4)), M)
        with pytest.raises(ShapeError):
            gradient_H(X, np.ones((3, 2)), np.ones((2, 3)), M)
        with pytest.raises(ShapeError):
            gradient_W(X, np.ones((4, 2)), np.ones((2, 3)), ObservationMask.full(4, 4))
        with pytest.raises(ShapeError):
            gradient_W(X, np.ones((4, 3)), np.ones((2, 3)), M)


@st.composite
def objective_problems(draw):
    """X in C order, F order or as a transposed view, factors, and a full or
    sparse weighted mask; shapes large enough for pairwise summation to show."""
    m, n, r = draw(st.integers(1, 60)), draw(st.integers(1, 60)), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "transposed view"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, n))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "transposed view":
        X = np.ascontiguousarray(X.T).T
    W, H = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
    if draw(st.booleans()):
        M = ObservationMask.full(m, n)
    else:
        rows, cols = np.nonzero(rng.uniform(size=(m, n)) < rng.uniform(0.1, 0.9))
        M = ObservationMask(m, n, rows, cols, rng.uniform(0.05, 1.0, size=rows.size))
    return X, W, H, M


class TestObjectiveInPlace:
    @settings(max_examples=80, deadline=None)
    @given(objective_problems())
    def test_bit_equal_to_out_of_place_formula(self, problem):
        X, W, H, M = problem
        copies = [A.copy(order="K") for A in (X, W, H)]
        if M.is_full:
            want = 0.5 * np.sum(np.square(X - W @ H))
        else:
            R = M.weights * (M.observed(X) - product_at(W, H, M.row_idx, M.col_idx))
            want = 0.5 * float(np.sum(np.square(R), dtype=np.float64))
        assert objective(X, W, H, M) == want
        for A, A0 in zip((X, W, H), copies):
            assert np.array_equal(A, A0)

    def test_full_residual_is_a_new_array(self):
        X, W, H = _factors(3, 5, 4)
        R = masked_residual(X, W, H, ObservationMask.full(5, 4))
        assert not any(np.shares_memory(R, A) for A in (X, W, H))
        assert np.array_equal(R, X - W @ H)

    def test_lower_precision_product_keeps_double_residual(self):
        X, W, H = _factors(4, 5, 4)
        W32, H32 = W.astype(np.float32), H.astype(np.float32)
        R = masked_residual(X, W32, H32, ObservationMask.full(5, 4))
        assert R.dtype == np.float64 and np.array_equal(R, X - W32 @ H32)


@st.composite
def blocked_problems(draw):
    """A weighted sparse mask of up to 12 x 60 cells with whole columns left
    empty, a block budget of 1-7 columns, a rank and a seed. Empty columns
    make whole blocks empty; nnz may be 0."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 60))
    block_bytes = 8 * m * draw(st.integers(1, 7)) + draw(st.integers(0, 8 * m - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    live_cols = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    rows, cols = np.nonzero((rng.uniform(size=(m, n)) < draw(st.floats(0, 1))) & live_cols)
    return m, n, rows, cols, block_bytes, draw(st.integers(1, 5)), seed


class TestBlockedProduct:
    """The column-blocked product at the cells, with the block budget cut to a
    few columns, against the dense product (W @ H)[rows, cols]."""

    @settings(max_examples=150, deadline=None)
    @given(blocked_problems())
    def test_mask_kernels_match_dense_product(self, problem):
        m, n, rows, cols, block_bytes, r, seed = problem
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(m, n))
        W, H = rng.uniform(-1, 1, size=(m, r)), rng.uniform(-1, 1, size=(r, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_BLOCK_BYTES", block_bytes)
            M = ObservationMask(m, n, rows, cols, rng.uniform(0.05, 1.0, size=rows.size))
            ri, ci, w = M.row_idx, M.col_idx, M.weights
            S = np.zeros((m, n))
            S[ri, ci] = w * (X - W @ H)[ri, ci]
            R = masked_residual(X, W, H, M)
            assert R.toarray() == pytest.approx(S, rel=1e-12, abs=1e-13)
            # the mask and product_at cut the columns alike, so the sums agree exactly
            x_minus_wh = M.observed(X) - product_at(W, H, ri, ci)
            assert objective(X, W, H, M) == 0.5 * float(np.sum(np.square(w * x_minus_wh)))
            S[ri, ci] *= w
            for x in (X, M.observed(X)):  # dense data or its observed values
                assert gradient_W(x, W, H, M) == pytest.approx(
                    -S @ H.T, rel=1e-12, abs=1e-13)
                assert gradient_H(x, W, H, M) == pytest.approx(
                    -W.T @ S, rel=1e-12, abs=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(blocked_problems(), st.integers(0, 3))
    def test_product_at_keeps_the_callers_order(self, problem, repeats):
        m, n, _, _, block_bytes, r, seed = problem
        rng = np.random.default_rng(seed)
        W, H = rng.uniform(-1, 1, size=(m, r)), rng.uniform(-1, 1, size=(r, n))
        # shuffled cells, some listed more than once
        k = int(rng.integers(0, m * n + 1))
        flat = rng.choice(m * n, size=k, replace=False)
        flat = rng.permutation(np.concatenate([flat] + [flat[: k // 2]] * repeats))
        rows, cols = np.divmod(flat, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_BLOCK_BYTES", block_bytes)
            got = product_at(W, H, rows, cols)
        assert got.shape == (flat.size,)
        assert got == pytest.approx((W @ H)[rows, cols], rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("m, n", [(1, 37), (23, 1), (1, 1)])
    def test_single_row_or_column(self, monkeypatch, m, n):
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * m * 3)
        rng = np.random.default_rng(m * 100 + n)
        W, H = rng.uniform(size=(m, 2)), rng.uniform(size=(2, n))
        rows, cols = np.divmod(np.arange(m * n)[::-1], n)
        assert product_at(W, H, rows, cols) == pytest.approx((W @ H)[rows, cols], rel=1e-12)
        M = ObservationMask(m, n, rows, cols, np.ones(m * n))
        X = rng.uniform(size=(m, n))
        assert objective(X, W, H, M) == pytest.approx(0.5 * np.sum((X - W @ H) ** 2), rel=1e-12)

    def test_empty_blocks_are_skipped(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * 4 * 2)  # two columns of a 4-row buffer
        M = ObservationMask(4, 30, [3, 0, 2], [29, 1, 1], np.ones(3))
        assert [b[:2] for b in Workspace(np.zeros(3), M).plan.blocks] == [(0, 2), (28, 30)]
        W, H = np.arange(8.0).reshape(4, 2), np.arange(60.0).reshape(2, 30)
        assert np.array_equal(product_at(W, H, [3, 0, 2], [29, 1, 1]),
                              (W @ H)[[3, 0, 2], [29, 1, 1]])

    def test_no_cells(self):
        W, H = np.ones((3, 2)), np.ones((2, 4))
        assert product_at(W, H, [], []).shape == (0,)
        M = ObservationMask(3, 4, [], [], [])
        assert objective(np.ones((3, 4)), W, H, M) == 0.0
        assert np.array_equal(gradient_W(np.ones((3, 4)), W, H, M), np.zeros((3, 2)))

    def test_cell_out_of_range(self):
        with pytest.raises(IndexError):
            product_at(np.ones((3, 2)), np.ones((2, 4)), [0, 3], [0, 0])
        with pytest.raises(IndexError):
            product_at(np.ones((3, 2)), np.ones((2, 4)), [0], [-1])
        with pytest.raises(ShapeError):
            product_at(np.ones((3, 2)), np.ones((2, 4)), [0, 1], [0])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@st.composite
def swept_arrays(draw):
    """An m x n array of floats with NaN, +-inf and signed zeros among them,
    in C or F order, and a sweep budget of 1 to m + 1 rows (plus a remainder
    that does not fill another row): one block, exactly one, or several."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    values = draw(st.lists(st.one_of(st.floats(-1e6, 1e6), special),
                           min_size=m * n, max_size=m * n))
    A = np.array(values, dtype=np.float64).reshape(m, n)
    if draw(st.booleans()):
        A = np.asfortranarray(A)
    sweep_bytes = 8 * n * draw(st.integers(1, m + 1)) + draw(st.integers(0, 8 * n - 1))
    return A, sweep_bytes


class TestSweep:
    @settings(max_examples=200, deadline=None)
    @given(swept_arrays())
    def test_full_mask_extrema_bit_equal_to_whole_array_reductions(self, problem):
        A, sweep_bytes = problem
        M = ObservationMask.full(*A.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_SWEEP_BYTES", sweep_bytes)
            for lo, hi in (M.row_extrema(A), M.sweep(A)[2:]):
                assert np.array_equal(_bits(lo), _bits(A.min(1)))
                assert np.array_equal(_bits(hi), _bits(A.max(1)))

    @pytest.mark.parametrize("m, n", [(3, 100_000), (40_000, 1), (1, 1), (700, 300)])
    def test_shapes_around_the_default_block(self, m, n):
        """Rows longer than a block (800 KB each), one column, a single cell,
        and 700 rows of 2.4 KB in blocks of 218 rows, the last one partial."""
        A = np.random.default_rng(m + n).standard_normal((m, n))
        lo, hi = ObservationMask.full(m, n).row_extrema(A)
        assert np.array_equal(lo, A.min(1)) and np.array_equal(hi, A.max(1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 41), st.integers(0, 2**32 - 1))
    def test_sum_of_squares(self, m, n, height, seed):
        A = np.random.default_rng(seed).standard_normal((m, n))
        M = ObservationMask.full(m, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "_SWEEP_BYTES", 8 * n * height)
            total, sum_sq, lo, hi = M.sweep(A, extrema=False)
        assert lo is None and hi is None
        assert sum_sq == pytest.approx(float(np.sum(A * A)), rel=1e-13)
        assert total == pytest.approx(float(np.sum(A)), rel=1e-12, abs=1e-12 * np.abs(A).sum())

    @settings(max_examples=60, deadline=None)
    @given(masked_problems())
    def test_sparse_mask_sweep_is_its_observed_values(self, problem):
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, w)
        X, _, _ = _factors(seed, m, n)
        x = M.observed(X)
        for A in (X, x):
            total, sum_sq, lo, hi = M.sweep(A)
            assert total / x.size == np.mean(x)  # bit for bit, as a centered solve needs
            assert sum_sq == float(np.einsum("i,i->", x, x))
            assert all(np.array_equal(a, b) for a, b in zip((lo, hi), M.row_extrema(A)))
        assert M.sweep(X, sums=False, extrema=False) == (None, None, None, None)


def _variant_factors(kind, rng, m, n, r):
    """A bounded W and a column-stochastic H (bssmf), nonnegative factors (nmf)
    or signed ones (mf)."""
    if kind == "bssmf":
        H = rng.uniform(size=(r, n))
        return rng.uniform(1, 5, size=(m, r)), H / H.sum(axis=0)
    if kind == "nmf":
        return rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
    return rng.standard_normal((m, r)), rng.standard_normal((r, n))


def _gradient(X, F, M, side, F_bar):
    """The gradient in the free factor F_bar with F frozen, as step_map's sides name them."""
    return gradient_W(X, F_bar, F, M) if side == "W" else gradient_H(X, F, F_bar, M)


class TestStepMap:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["bssmf", "nmf", "mf"]), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
    def test_full_mask_map_is_the_gradient_step(self, kind, m, n, r, shared, seed):
        """The affine map equals F_bar - gradient(F_bar)/L to rel 1e-12 of the
        largest entry, on both sides, with a shared workspace or not."""
        rng = np.random.default_rng(seed)
        W, H = _variant_factors(kind, rng, m, n, r)
        W_bar, H_bar = _variant_factors(kind, rng, m, n, r)
        X = W @ H + 0.1 * rng.standard_normal((m, n))
        M = ObservationMask.full(m, n)
        work = Workspace(X, M)
        for side, F, F_bar, G in (("W", H, W_bar, H @ H.T), ("H", W, H_bar, W.T @ W)):
            L = max(spectral_norm(G), 1e-12) * rng.uniform(1.0, 3.0)
            step = step_map(work if shared else Workspace(X, M), F, side, L)
            want = F_bar - _gradient(X, F, M, side, F_bar) / L
            got = step(F_bar)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert step(F_bar) is not got  # a new array on every call

    @settings(max_examples=60, deadline=None)
    @given(masked_problems(), st.integers(1, 4))
    def test_sparse_map_bit_equal_to_the_gradient_step(self, problem, r):
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, w)
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(m, n))
        W, H = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        work = Workspace(X, M)
        for side, F, F_bar in (("W", H, W), ("H", W, H), ("W", H + 0.5, W - 0.5)):
            want = F_bar - _gradient(X, F, M, side, F_bar) / 3.0
            assert np.array_equal(step_map(work, F, side, 3.0)(F_bar), want)

    def test_rejects_bad_side_and_shapes(self):
        work = Workspace(np.ones((4, 3)), ObservationMask.full(4, 3))
        with pytest.raises(ValueError, match="side"):
            step_map(work, np.ones((2, 3)), "V", 1.0)
        with pytest.raises(ShapeError):
            step_map(work, np.ones((3, 2)), "H", 1.0)
        with pytest.raises(ShapeError):
            step_map(work, np.ones((2, 3)), "W", 1.0)(np.ones((4, 3)))


class TestSparseWorkspace:
    @settings(max_examples=80, deadline=None)
    @given(masked_problems(), st.integers(1, 4), st.booleans())
    def test_shared_workspace_bit_equal_to_fresh_gradients(self, problem, r, unit):
        """Consecutive blocks and objectives that share one workspace, as a
        solve's do, give the gradients of fresh gradient_W/gradient_H calls
        at each point, and the objective of fresh buffers."""
        m, n, rows, cols, w, _, seed = problem
        M = ObservationMask(m, n, rows, cols, np.ones(w.size) if unit else w)
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(m, n))
        work = Workspace(X, M)
        W, H = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        for _ in range(3):  # W block, then H block, with new frozen factors each time
            grad = mc._gradient(work, H, "W")
            for A in (W, W + 1.0):
                assert np.array_equal(grad(A), gradient_W(X, A, H, M))
            W = rng.uniform(size=(m, r))
            grad = mc._gradient(work, W, "H")
            for A in (H, H + 1.0):
                assert np.array_equal(grad(A), gradient_H(X, W, A, M))
            H = rng.uniform(size=(r, n))
            assert objective(X, W, H, M, work) == objective(X, W, H, M)

    @settings(max_examples=60, deadline=None)
    @given(masked_problems(), st.integers(1, 4))
    def test_unit_weights_skip_the_multiply_bit_equal(self, problem, r):
        m, n, rows, cols, _, _, seed = problem
        M = ObservationMask(m, n, rows, cols, np.ones(rows.size))
        assert Workspace(np.zeros(M.nnz), M).w2 is None
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(m, n))
        W, H = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        skipped = [gradient_W(X, W, H, M), gradient_H(X, W, H, M),
                   masked_residual(X, W, H, M).toarray(), objective(X, W, H, M)]
        init = Workspace.__init__

        def multiplying(work, X, M):  # every workspace multiplies by the squared weights
            init(work, X, M)
            work.w2 = np.ones(M.nnz)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Workspace, "__init__", multiplying)
            multiplied = [gradient_W(X, W, H, M), gradient_H(X, W, H, M),
                          masked_residual(X, W, H, M).toarray(), objective(X, W, H, M)]
        for a, b in zip(skipped, multiplied):
            assert np.array_equal(a, b)

    def test_full_mask_needs_no_buffers(self):
        work = Workspace(np.zeros((3, 4)), ObservationMask.full(3, 4))
        assert work.indptr is None and work.res is None and work.buf is None
        assert work.plan is None and work.w2 is None

    def test_sparse_mask_keeps_only_its_data(self):
        """What a solve derives from the cells is in its workspace, not the mask."""
        M = ObservationMask(3, 4, [0, 2], [1, 3], [1.0, 0.5], [0.25, 0.75])
        assert set(vars(M)) == {"rows", "cols", "_full", "row_idx", "col_idx", "weights",
                                "values"}


@st.composite
def kernel_problems(draw):
    """Shape, rank, which cells are observed (empty rows, columns and masks
    included), unit or random weights, the factors' layout and a seed."""
    m, n, r = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    unit = draw(st.booleans())
    layout = draw(st.sampled_from(["C", "F", "float32"]))
    return m, n, r, np.array(cells).reshape(m, n), unit, layout, draw(st.integers(0, 2**32 - 1))


class TestSparseKernels:
    """The two products with the residual call scipy's compiled kernels
    directly; they are bit for bit what scipy.sparse's @ gives."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(kernel_problems())
    @example((4, 3, 2, np.zeros((4, 3), bool), True, "C", 0))  # nnz == 0
    @example((5, 4, 1, np.eye(5, 4, dtype=bool), False, "float32", 1))  # r == 1
    @example((3, 5, 3, np.array([[1, 0, 1, 0, 1], [0] * 5, [1, 0, 0, 0, 1]], bool),
              False, "F", 2))  # an empty row and empty columns
    def test_products_bit_equal_to_scipy(self, problem):
        import scipy.sparse as sp  # the reference only: a solve imports no scipy package

        m, n, r, observed, unit, layout, seed = problem
        rng = np.random.default_rng(seed)
        rows, cols = np.nonzero(observed)
        M = ObservationMask(m, n, rows, cols,
                            np.ones(rows.size) if unit else rng.uniform(0.05, 1.0, rows.size))
        X = rng.uniform(size=(m, n))
        W, H = rng.uniform(size=(m, r)), rng.uniform(size=(r, n))
        if layout == "F":
            W, H = np.asfortranarray(W), np.asfortranarray(H)
        elif layout == "float32":
            W, H = W.astype(np.float32), H.astype(np.float32)
        work = Workspace(X, M)
        for side, F, F_bar in (("W", H, W), ("H", W, H)):
            got = mc._gradient(work, F, side)(F_bar)
            # the residual w2 * (WH - x) the call left in work, as a CSC matrix
            R = sp.csc_matrix((work.res.copy(), M.row_idx, work.indptr), shape=(m, n))
            want = R @ np.ascontiguousarray(F.T) if side == "W" else (R.T @ F).T
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_loader_reuses_the_loaded_extension(self):
        import scipy.sparse  # noqa: F401  (registers scipy.sparse._sparsetools)

        assert mc._sparsetools() is sys.modules["scipy.sparse._sparsetools"]

    def test_missing_extension_names_its_folder(self, tmp_path, monkeypatch):
        """No fallback to importing scipy.sparse: a scipy without the file is an ImportError."""
        (tmp_path / "scipy" / "sparse").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        spec = importlib.util.spec_from_file_location(
            "scipy", tmp_path / "scipy" / "__init__.py",
            submodule_search_locations=[str(tmp_path / "scipy")])
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *a: spec if name == "scipy" else None)
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
        with pytest.raises(ImportError, match=str(tmp_path / "scipy" / "sparse")):
            mc._sparsetools.__wrapped__()
