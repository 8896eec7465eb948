import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bssmf import (
    BoundsVector,
    ModelVariant,
    ObservationMask,
    SolverConfig,
    predict_cells,
    solve,
    solve_centered,
)
import bssmf.matrixcore as mc
from bssmf.matrixcore import objective
from bssmf.solver import ConfigError, _check_observed, initialize

from conftest import random_mask


def feasible(factors, variant, tol_sum=1e-10):
    W, H = factors.W, factors.H
    if variant.kind == "bssmf":
        ok_w = np.all(W >= variant.bounds.lower[:, None]) and np.all(
            W <= variant.bounds.upper[:, None]
        )
        ok_h = H.min() >= 0 and np.max(np.abs(H.sum(axis=0) - 1)) <= tol_sum
        return ok_w and ok_h
    if variant.kind == "nmf":
        return W.min() >= 0 and H.min() >= 0
    return True


def palm_reference(X, M, variant, config):
    """Independent plain projected-gradient BCD (no momentum machinery)."""
    from bssmf import matrixcore as mc

    factors = initialize(X, M, variant, config)
    W, H = factors.W, factors.H
    L_W = max(mc.spectral_norm(H @ H.T), 1e-12)
    L_H = max(mc.spectral_norm(W.T @ W), 1e-12)
    for _ in range(config.max_outer):
        for _ in range(config.max_inner_W):
            W = variant.project_W(W - mc.gradient_W(X, W, H, M) / L_W)
        L_H = max(mc.spectral_norm(W.T @ W), 1e-12)
        for _ in range(config.max_inner_H):
            H = variant.project_H(H - mc.gradient_H(X, W, H, M) / L_H)
        L_W = max(mc.spectral_norm(H @ H.T), 1e-12)
    return W, H


class TestModelVariant:
    def test_from_kind_matches_named_constructors(self):
        bounds = BoundsVector.constant(4, 1, 5)
        assert ModelVariant.from_kind("bssmf", bounds) == ModelVariant.bssmf(bounds)
        for kind, make in (("nmf", ModelVariant.nmf), ("mf", ModelVariant.mf)):
            var = ModelVariant.from_kind(kind, bounds)
            ref = make(4)
            assert var.kind == kind
            assert np.array_equal(var.bounds.lower, ref.bounds.lower)
            assert np.array_equal(var.bounds.upper, ref.bounds.upper)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant 'nfm'"):
            ModelVariant.from_kind("nfm", BoundsVector.constant(4, 1, 5))


class TestInitialize:
    def test_deterministic(self):
        X = np.random.default_rng(0).uniform(size=(6, 5))
        var = ModelVariant.bssmf(BoundsVector.constant(6, 0, 1))
        cfg = SolverConfig(rank=2, seed=42)
        M = ObservationMask.full(6, 5)
        f1 = initialize(X, M, var, cfg)
        f2 = initialize(X, M, var, cfg)
        assert np.array_equal(f1.W, f2.W) and np.array_equal(f1.H, f2.H)

    def test_degenerate_bounds_constant(self):
        X = np.full((4, 3), 2.0)
        var = ModelVariant.bssmf(BoundsVector.constant(4, 2, 2))
        f = initialize(X, ObservationMask.full(4, 3), var, SolverConfig(rank=2, seed=0))
        assert np.all(f.W == 2.0)
        assert feasible(f, var)

    def test_rank_one_simplex_singleton(self):
        X = np.ones((3, 4))
        var = ModelVariant.bssmf(BoundsVector.constant(3, 0, 1))
        f = initialize(X, ObservationMask.full(3, 4), var, SolverConfig(rank=1, seed=3))
        assert np.array_equal(f.H, np.ones((1, 4)))

    def test_feasible_every_variant(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 5))
        for var in (
            ModelVariant.bssmf(BoundsVector.constant(5, 0, 1)),
            ModelVariant.nmf(5),
            ModelVariant.mf(5),
        ):
            f = initialize(X, ObservationMask.full(5, 5), var, SolverConfig(rank=3, seed=0))
            assert feasible(f, var)


class TestSolve:
    def test_bcd_monotone_descent(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(20, 15))
        var = ModelVariant.bssmf(BoundsVector.constant(20, 0, 1))
        cfg = SolverConfig(rank=3, max_outer=30, max_inner_W=3, max_inner_H=3,
                           rel_tol=0.0, extrapolate=False, seed=0)
        _, rep = solve(X, ObservationMask.full(20, 15), var, cfg)
        t = rep.objective_trace
        for a, b in zip(t, t[1:]):
            assert b <= a + 1e-12 * (1 + a)

    def test_feasibility_after_solve(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(1, 5, size=(15, 12))
        var = ModelVariant.bssmf(BoundsVector.constant(15, 1, 5))
        M = random_mask(rng, 15, 12, density=0.6)
        cfg = SolverConfig(rank=4, max_outer=25, rel_tol=0.0, seed=1)
        f, _ = solve(X, M, var, cfg)
        assert feasible(f, var)

    def test_stationary_at_exact_factorization(self):
        # W interior, zero residual: one W step leaves W unchanged
        rng = np.random.default_rng(4)
        from bssmf.projections import project_simplex_columns
        W = rng.uniform(0.2, 0.8, size=(6, 2))
        H = project_simplex_columns(rng.uniform(size=(2, 5)))
        X = W @ H
        from bssmf import matrixcore as mc
        from bssmf.solver import _BlockState, update_W_block
        var = ModelVariant.bssmf(BoundsVector.constant(6, 0, 1))
        state = _BlockState(mc.spectral_norm(H @ H.T))
        M = ObservationMask.full(6, 5)
        W2, _ = update_W_block(X, W, H, M, var, state, W, 1, True)
        assert np.allclose(W2, W, atol=1e-12)

    def test_bcd_matches_palm_reference(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(10, 8))
        var = ModelVariant.bssmf(BoundsVector.constant(10, 0, 1))
        M = ObservationMask.full(10, 8)
        cfg = SolverConfig(rank=3, max_outer=5, max_inner_W=2, max_inner_H=2,
                           rel_tol=0.0, extrapolate=False, seed=7)
        f, _ = solve(X, M, var, cfg)
        W_ref, H_ref = palm_reference(X, M, var, cfg)
        assert np.allclose(f.W, W_ref, atol=1e-10)
        assert np.allclose(f.H, H_ref, atol=1e-10)

    def test_mf_reaches_svd_optimum(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 15))
        var = ModelVariant.mf(20)
        cfg = SolverConfig(rank=3, max_outer=500, max_inner_W=10, max_inner_H=10,
                           rel_tol=0.0, seed=0)
        _, rep = solve(X, ObservationMask.full(20, 15), var, cfg)
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        svd_obj = 0.5 * np.sum(s[3:] ** 2)
        assert rep.objective_trace[-1] <= svd_obj * 1.05

    def test_rank_error(self):
        X = np.ones((3, 3))
        var = ModelVariant.mf(3)
        with pytest.raises(ConfigError):
            solve(X, ObservationMask.full(3, 3), var, SolverConfig(rank=4))

    def test_empty_mask_returns_init(self):
        X = np.ones((4, 4))
        var = ModelVariant.nmf(4)
        M = ObservationMask(4, 4)
        f, rep = solve(X, M, var, SolverConfig(rank=2, seed=0))
        assert rep.objective_trace == [0.0]

    def test_trace_length(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(8, 8))
        var = ModelVariant.nmf(8)
        cfg = SolverConfig(rank=2, max_outer=12, rel_tol=0.0, seed=0)
        _, rep = solve(X, ObservationMask.full(8, 8), var, cfg)
        assert len(rep.objective_trace) == rep.outer_iterations + 1
        assert len(rep.lipschitz_trace) == rep.outer_iterations

    def test_determinism(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(10, 9))
        var = ModelVariant.bssmf(BoundsVector.constant(10, 0, 1))
        cfg = SolverConfig(rank=3, max_outer=10, rel_tol=0.0, seed=5)
        M = ObservationMask.full(10, 9)
        _, r1 = solve(X, M, var, cfg)
        _, r2 = solve(X, M, var, cfg)
        assert r1.objective_trace == r2.objective_trace

    def test_out_of_bounds_data_warns(self):
        X = np.full((3, 3), 10.0)
        var = ModelVariant.bssmf(BoundsVector.constant(3, 0, 3))
        with pytest.warns(UserWarning, match="outside"):
            solve(X, ObservationMask.full(3, 3), var,
                  SolverConfig(rank=1, max_outer=2, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_nonfinite_observed_entry_raises(self, bad, solver):
        X = np.full((4, 3), 0.5)
        X[1, 2] = bad
        var = ModelVariant.bssmf(BoundsVector.constant(4, 0, 1))
        with pytest.raises(ValueError, match="non-finite"):
            solver(X, ObservationMask.full(4, 3), var, SolverConfig(rank=2, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_nonfinite_observed_entry_raises_sparse_mask(self, bad, solver):
        X = np.full((4, 3), 0.5)
        X[1, 2] = bad
        M = ObservationMask(4, 3, [0, 1, 3, 2], [0, 2, 1, 2], [1.0, 0.5, 1.0, 0.25])
        var = ModelVariant.bssmf(BoundsVector.constant(4, 0, 1))
        with pytest.raises(ValueError, match="non-finite"):
            solver(X, M, var, SolverConfig(rank=2, seed=0))

    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_overflowing_sum_of_squares_is_not_nonfinite(self, full, solver):
        # finite entries whose squares overflow: the one-pass sum of squares
        # is inf, and the exact scan must still let them through; the solve
        # then stops as diverged on the last finite iterate
        X = np.full((4, 3), 1e200)
        M = (ObservationMask.full(4, 3) if full
             else ObservationMask(4, 3, [0, 1, 3], [0, 2, 1], np.ones(3)))
        var = ModelVariant.bssmf(BoundsVector.constant(4, 0, 2e200))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore")
            f, report = solver(X, M, var, SolverConfig(rank=2, max_outer=2, seed=0))
        assert report.stop_reason == "diverged"
        assert np.all(np.isfinite(f.W)) and np.all(np.isfinite(f.H)) and feasible(f, var)

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_nan_in_unobserved_cell_ignored(self, solver):
        rng = np.random.default_rng(15)
        X = rng.uniform(size=(5, 4))
        X[1, 2] = np.nan
        observed = np.ones((5, 4), dtype=bool)
        observed[1, 2] = False
        ri, ci = np.nonzero(observed)
        M = ObservationMask(5, 4, ri, ci, np.ones(ri.size))
        var = ModelVariant.bssmf(BoundsVector.constant(5, 0, 1))
        cfg = SolverConfig(rank=2, max_outer=5, rel_tol=0.0, seed=0)
        f, rep = solver(X, M, var, cfg)
        assert np.all(np.isfinite(f.W)) and np.all(np.isfinite(f.H))
        assert np.all(np.isfinite(rep.objective_trace))


class TestCentering:
    def test_objective_equivalence_on_feasible_points(self):
        rng = np.random.default_rng(9)
        from bssmf.projections import project_simplex_columns
        M = ObservationMask.full(8, 6)
        for _ in range(20):
            X = rng.uniform(1, 5, size=(8, 6))
            W = rng.uniform(1, 5, size=(8, 3))
            H = project_simplex_columns(rng.uniform(size=(3, 6)))
            c = rng.uniform(-2, 2)
            f = objective(X, W, H, M)
            fc = objective(X - c, W - c, H, M)
            assert abs(f - fc) <= 1e-9 * (1 + f)

    def test_zero_centering_bit_identical(self):
        rng = np.random.default_rng(10)
        # integer-valued data adjusted to an exactly-zero mean
        X = rng.integers(-2, 3, size=(8, 6)).astype(float)
        X[0, 0] -= X.sum()
        var = ModelVariant.bssmf(BoundsVector.constant(8, -2, 2))
        cfg = SolverConfig(rank=2, max_outer=8, rel_tol=0.0, seed=3)
        M = ObservationMask.full(8, 6)
        with pytest.warns(UserWarning, match="outside"):
            f1, r1 = solve(X, M, var, cfg)
        with pytest.warns(UserWarning, match="outside"):
            f2, r2 = solve_centered(X, M, var, cfg)
        assert r1.objective_trace == r2.objective_trace
        assert np.array_equal(f1.W, f2.W) and np.array_equal(f1.H, f2.H)

    def test_constant_matrix_rank_one(self):
        X = np.full((5, 4), 3.0)
        var = ModelVariant.bssmf(BoundsVector.constant(5, 0, 5))
        cfg = SolverConfig(rank=1, max_outer=5, rel_tol=0.0, seed=0)
        f, rep = solve_centered(X, ObservationMask.full(5, 4), var, cfg)
        assert np.allclose(f.W, 3.0, atol=1e-12)
        assert np.array_equal(f.H, np.ones((1, 4)))
        assert rep.objective_trace[-1] == pytest.approx(0.0, abs=1e-20)

    def test_rejects_other_variants(self):
        X = np.ones((3, 3))
        with pytest.raises(ConfigError):
            solve_centered(X, ObservationMask.full(3, 3), ModelVariant.nmf(3),
                           SolverConfig(rank=1))

    def test_trace_in_original_coordinates(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(1, 5, size=(10, 8))
        var = ModelVariant.bssmf(BoundsVector.constant(10, 1, 5))
        cfg = SolverConfig(rank=2, max_outer=10, rel_tol=0.0, seed=1)
        M = ObservationMask.full(10, 8)
        f, rep = solve_centered(X, M, var, cfg)
        assert rep.objective_trace[-1] == pytest.approx(
            objective(X, f.W, f.H, M), rel=1e-12
        )


@st.composite
def centering_problems(draw):
    """A full or sparse weighted mask with at least one cell, a rank, the
    stopping and trace settings, and a seed for X."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    if draw(st.booleans()):
        M = ObservationMask.full(m, n)
    else:
        flat = np.array(draw(st.lists(st.integers(0, m * n - 1), min_size=1,
                                      max_size=m * n, unique=True)))
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=flat.size, max_size=flat.size))
        M = ObservationMask(m, n, flat // n, flat % n, w)
    config = SolverConfig(rank=draw(st.integers(1, min(m, n))), max_outer=15,
                          max_inner_W=2, max_inner_H=2,
                          rel_tol=draw(st.sampled_from([0.0, 1e-3])),
                          record_trace=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    return M, config, draw(st.integers(0, 2**32 - 1))


class TestCenteredSolve:
    @settings(max_examples=60, deadline=None)
    @given(centering_problems())
    def test_config_center_is_solve_centered(self, problem):
        M, config, seed = problem
        X = np.random.default_rng(seed).uniform(1, 5, size=(M.rows, M.cols))
        var = ModelVariant.bssmf(BoundsVector.constant(M.rows, 1, 5))
        f, rep = solve(X, M, var, replace(config, center=True))
        f_c, rep_c = solve_centered(X, M, var, config)
        assert np.array_equal(f.W, f_c.W) and np.array_equal(f.H, f_c.H)
        assert rep.objective_trace == rep_c.objective_trace
        assert rep.lipschitz_trace == rep_c.lipschitz_trace
        assert (rep.stop_reason, rep.outer_iterations) == (rep_c.stop_reason,
                                                           rep_c.outer_iterations)
        assert rep.objective_trace[-1] == pytest.approx(objective(X, f.W, f.H, M),
                                                        rel=1e-12, abs=1e-300)
        for other in (ModelVariant.nmf(M.rows), ModelVariant.mf(M.rows)):
            with pytest.raises(ConfigError, match="centering"):
                solve(X, M, other, replace(config, center=True))


def _close(a, b, scale):
    return np.allclose(a, b, rtol=1e-10, atol=1e-10 * scale)


class TestCenteringIsAStepRule:
    """solve(center=True) is the solve of the shifted problem, shifted back."""

    @settings(max_examples=60, deadline=None)
    @given(centering_problems(), st.booleans(), st.booleans())
    def test_matches_explicit_shifted_fit(self, problem, extrapolate, spill):
        M, config, seed = problem
        config = replace(config, extrapolate=extrapolate)
        rng = np.random.default_rng(seed)
        if spill:  # observed entries may fall just outside the bounds
            X = rng.uniform(0.9, 5.1, size=(M.rows, M.cols))
            lo, hi = np.ones(M.rows), np.full(M.rows, 5.0)
        else:
            X = rng.uniform(1.0, 5.0, size=(M.rows, M.cols))
            lo, hi = rng.uniform(0.5, 1.0, M.rows), rng.uniform(5.0, 5.5, M.rows)
        var = ModelVariant.bssmf(BoundsVector(lo, hi))
        c = float(np.mean(M.observed(X)))
        shifted = ModelVariant.bssmf(BoundsVector(lo - c, hi - c))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(X, M, var, config)
            warned_plain = len(caught)
            f, rep = solve(X, M, var, replace(config, center=True))
            warned_centered = len(caught) - warned_plain
            g, rep_g = solve(X - c, M, shifted, config)
        assert all("outside" in str(w.message) for w in caught)
        assert warned_centered == warned_plain <= 1
        # at an exact fit the relative stopping test compares rounding errors
        f0 = rep.objective_trace[0]
        assume(min(rep.objective_trace[-1], rep_g.objective_trace[-1]) > 1e-20 * f0)

        scale = float(np.max(np.abs(M.observed(X))))
        assert _close(f.W, g.W + c, scale) and _close(f.H, g.H, 1.0)
        assert (rep.stop_reason, rep.outer_iterations) == (rep_g.stop_reason,
                                                           rep_g.outer_iterations)
        assert len(rep.objective_trace) == len(rep_g.objective_trace)
        assert _close(rep.objective_trace, rep_g.objective_trace, f0)
        assert len(rep.lipschitz_trace) == len(rep_g.lipschitz_trace)
        if rep.lipschitz_trace:
            assert _close(rep.lipschitz_trace, rep_g.lipschitz_trace, 1e-12)

    def test_floor_is_that_of_the_shifted_values(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(40.0, 60.0, size=(30, 20))
        M = random_mask(rng, 30, 20, density=0.5)
        x = M.observed(X)
        c = float(np.mean(x))
        shifted = 1e-12 * np.sum((x - c) ** 2) / X.size
        assert shifted > 1e-12
        assert _check_observed(x, M, c=c) == pytest.approx(shifted, rel=1e-12)

    def test_full_mask_peak_below_one_and_a_half_dense_arrays(self):
        """The centered solve fits the caller's data: no shifted copy of X
        (a full mask's observed values are X itself) and no W + c."""
        m, n = 300, 400
        rng = np.random.default_rng(5)
        X = rng.uniform(1, 5, size=(m, n))
        variant = ModelVariant.bssmf(BoundsVector.constant(m, 1.0, 5.0))
        config = SolverConfig(rank=5, max_outer=3, max_inner_W=2, max_inner_H=2,
                              rel_tol=0.0, seed=0)
        tracemalloc.start()
        try:
            solve_centered(X, ObservationMask.full(m, n), variant, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes


class TestExtrapolationBenefit:
    @pytest.mark.filterwarnings("ignore:observed entries outside")
    def test_majority_of_seeds(self):
        rng = np.random.default_rng(12)
        wins = 0
        for seed in range(10):
            W0 = rng.uniform(0, 1, size=(50, 5))
            from bssmf.projections import project_simplex_columns
            H0 = project_simplex_columns(rng.uniform(size=(5, 40)))
            X = W0 @ H0 + 0.01 * rng.standard_normal((50, 40))
            var = ModelVariant.bssmf(BoundsVector.constant(50, 0, 1))
            M = ObservationMask.full(50, 40)
            base = dict(rank=5, max_outer=30, max_inner_W=3, max_inner_H=3,
                        rel_tol=0.0, seed=seed)
            _, r_ex = solve(X, M, var, SolverConfig(extrapolate=True, **base))
            _, r_bcd = solve(X, M, var, SolverConfig(extrapolate=False, **base))
            if r_ex.objective_trace[-1] <= r_bcd.objective_trace[-1]:
                wins += 1
        assert wins >= 8


class TestSparseSolveMemory:
    def test_peak_below_one_cells_by_rank_array(self, monkeypatch):
        """A sparse solve pass allocates O(m b + nnz), never an nnz x r array:
        the product at the cells goes through one block buffer."""
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 64 << 10)
        m, n, r = 300, 200, 10
        rng = np.random.default_rng(3)
        rows, cols = np.nonzero(rng.uniform(size=(m, n)) < 0.35)
        cells_by_rank = 8 * rows.size * r
        assert cells_by_rank >= 4 * mc._BLOCK_BYTES
        M = ObservationMask(m, n, rows, cols, np.ones(rows.size))
        X = rng.uniform(1, 5, size=(m, n))
        variant = ModelVariant.bssmf(BoundsVector.constant(m, 1.0, 5.0))
        config = SolverConfig(rank=r, max_outer=2, max_inner_W=1, max_inner_H=1,
                              rel_tol=0.0, record_trace=False)
        tracemalloc.start()
        try:
            solve(X, M, variant, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cells_by_rank

    def test_centered_peak_below_one_dense_array(self, monkeypatch):
        """Centering shifts the observed values, so a sparse centered solve
        allocates no m x n array."""
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 64 << 10)
        m, n, r = 600, 800, 5
        rng = np.random.default_rng(4)
        rows, cols = np.nonzero(rng.uniform(size=(m, n)) < 0.02)
        M = ObservationMask(m, n, rows, cols, np.ones(rows.size))
        X = rng.uniform(1, 5, size=(m, n))
        variant = ModelVariant.bssmf(BoundsVector.constant(m, 1.0, 5.0))
        config = SolverConfig(rank=r, max_outer=2, max_inner_W=1, max_inner_H=1,
                              rel_tol=0.0, record_trace=False)
        tracemalloc.start()
        try:
            solve_centered(X, M, variant, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


class TestObjectiveEvaluations:
    @staticmethod
    def _problem():
        rng = np.random.default_rng(15)
        X = rng.uniform(1, 5, size=(9, 7))
        return X, random_mask(rng, 9, 7, density=0.7, weighted=True), \
            ModelVariant.bssmf(BoundsVector.constant(9, 1, 5))

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    @pytest.mark.parametrize("rel_tol, record_trace, calls", [
        (0.0, False, 2), (0.0, True, 6), (1e-3, False, 6), (1e-3, True, 6)])
    def test_objective_call_count(self, monkeypatch, solver, rel_tol, record_trace, calls):
        from bssmf import matrixcore as mc
        counted = []
        inner = mc.objective

        def counting(*args):
            counted.append(1)
            return inner(*args)

        monkeypatch.setattr(mc, "objective", counting)
        X, M, var = self._problem()
        cfg = SolverConfig(rank=2, max_outer=5, rel_tol=rel_tol,
                           record_trace=record_trace, seed=2)
        _, rep = solver(X, M, var, cfg)
        assert rep.outer_iterations == 5
        assert len(counted) == calls

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_untracked_trace_is_first_and_last(self, solver):
        X, M, var = self._problem()
        runs = [solver(X, M, var, SolverConfig(rank=2, max_outer=12, rel_tol=0.0,
                                               record_trace=rec, seed=2))
                for rec in (False, True)]
        (f_short, short), (f_full, full) = runs
        assert short.objective_trace == [full.objective_trace[0], full.objective_trace[-1]]
        assert np.array_equal(f_short.W, f_full.W) and np.array_equal(f_short.H, f_full.H)


class TestPredict:
    def test_vertex_selection(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        H = np.array([[0.0], [1.0]])
        assert predict_cells(W, H, [0, 1], [0, 0]).tolist() == [2.0, 4.0]

    def test_within_bounds(self):
        rng = np.random.default_rng(13)
        from bssmf.projections import project_simplex_columns
        W = rng.uniform(1, 5, size=(6, 3))
        H = project_simplex_columns(rng.uniform(size=(3, 7)))
        b = BoundsVector.constant(6, 1, 5)
        rows, cols = np.indices((6, 7))
        vals = predict_cells(W, H, rows.ravel(), cols.ravel(), bounds=b)
        assert all(1.0 <= v <= 5.0 for v in vals)

    def test_out_of_range_index(self):
        W = np.ones((2, 1))
        H = np.ones((1, 2))
        with pytest.raises(IndexError):
            predict_cells(W, H, [2], [0])

    def test_exact_factorization_recovers_data(self, example6x6=None):
        rng = np.random.default_rng(14)
        W = rng.uniform(size=(4, 2))
        H = rng.uniform(size=(2, 5))
        X = W @ H
        vals = predict_cells(W, H, [1, 3], [2, 4])
        assert vals[0] == pytest.approx(X[1, 2]) and vals[1] == pytest.approx(X[3, 4])

    def test_escaping_bounds_raises(self):
        # W outside [0, 1]: the prediction 2.0 escapes the per-row bounds
        W = np.array([[2.0]])
        H = np.array([[1.0]])
        with pytest.raises(ValueError, match="escapes"):
            predict_cells(W, H, [0], [0], bounds=BoundsVector.constant(1, 0, 1))
