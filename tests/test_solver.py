import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bssmf import (
    BoundsVector,
    FactorPair,
    ModelVariant,
    ObservationMask,
    SolverConfig,
    predict_cells,
    solve,
    solve_centered,
)
import bssmf.matrixcore as mc
import bssmf.solver as sv
from bssmf.evaluation import solve_h_given_w
from bssmf.identifiability import SyntheticSpec, generate_synthetic
from bssmf.matrixcore import objective
from bssmf.preprocessing import infer_bounds
from bssmf.projections import project_simplex_columns
from bssmf.solver import ConfigError, _check_observed, initialize, solve_h

from conftest import random_mask
from oracles import reference_solve


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


@st.composite
def reference_problems(draw):
    """Noisy data in [s, 5s] on a full, unit-sparse or weighted-sparse mask
    with at least one cell, a variant with bounds [s, 5s], and a config with
    every setting the loop reads drawn. The scale s is 1, or in about one
    case in ten 1e200, whose squares overflow: a "diverged" stop."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 1e200 if draw(st.integers(0, 19)) == 19 else 1.0
    rng = np.random.default_rng(seed)
    r = draw(st.integers(1, min(m, n, 3)))
    X = scale * np.clip(rng.uniform(1, 5, (m, r)) @ rng.dirichlet(np.ones(r), n).T
                        + 0.5 * rng.standard_normal((m, n)), 1, 5)
    mask = draw(st.sampled_from(["full", "unit", "weighted"]))
    if mask == "full":
        M = ObservationMask.full(m, n)
    else:
        keep = rng.uniform(size=(m, n)) < 0.6
        keep[0, 0] = True
        rows, cols = np.nonzero(keep)
        w = np.ones(rows.size) if mask == "unit" else rng.uniform(0.1, 1.0, rows.size)
        M = ObservationMask(m, n, rows, cols, w)
    kind = draw(st.sampled_from(["bssmf", "nmf", "mf"]))
    config = SolverConfig(rank=r, max_outer=draw(st.integers(1, 40)),
                          max_inner_W=draw(st.integers(1, 3)),
                          max_inner_H=draw(st.integers(1, 3)),
                          rel_tol=draw(st.sampled_from([0.0, 1e-6, 1e-2, 0.5])),
                          extrapolate=draw(st.booleans()),
                          record_trace=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    bounds = BoundsVector.constant(m, scale, 5 * scale)
    return X, M, ModelVariant.from_kind(kind, bounds), config


def _assert_same_fit(got, got_report, want, want_report):
    """Factors and traces within 1e-9 of the reference, relative to the
    largest finite entry of each, the same non-finite entries, and the same
    stop after the same passes."""
    assert (got_report.stop_reason, got_report.outer_iterations) == (
        want_report.stop_reason, want_report.outer_iterations)
    for a, b in ((got.W, want.W), (got.H, want.H),
                 (got_report.objective_trace, want_report.objective_trace),
                 (got_report.lipschitz_trace, want_report.lipschitz_trace)):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        assert a.shape == b.shape
        finite = np.isfinite(b)
        assert np.array_equal(a[~finite], b[~finite], equal_nan=True)
        if finite.any():
            tol = 1e-9 * max(np.max(np.abs(b[finite])), 1e-300)
            assert np.max(np.abs(a[finite] - b[finite])) <= tol


class TestReferenceSolver:
    """solve, solve_centered and solve_h against tests/oracles.reference_solve,
    which follows the definitions with a dense residual. The example budget
    is the loaded profile's (100 by default, 1000 under the derandomized-10x
    profile of conftest.py), and the examples are the same on every run."""

    @settings(derandomize=True, deadline=None)
    @given(reference_problems())
    def test_every_fit_matches_the_reference(self, problem):
        X, M, variant, config = problem
        fits = [(solve, None)]
        if variant.kind == "bssmf":
            fits.append((solve_centered, None))
        fits.append((solve_h, initialize(M, variant, replace(config, seed=config.seed + 1)).W))
        for fit, W in fits:
            want, want_report, closest = reference_solve(
                X, M, variant, replace(config, center=fit is solve_centered), W)
            assume(closest > 1e-9)  # a stop that rounding decides is no test
            if W is None:
                got, got_report = fit(X, M, variant, config)
            else:
                H, got_report = fit(X, M, W, variant, config)
                got = FactorPair(W, H)
            _assert_same_fit(got, got_report, want, want_report)


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
        var = ModelVariant.bssmf(BoundsVector.constant(6, 0, 1))
        cfg = SolverConfig(rank=2, seed=42)
        M = ObservationMask.full(6, 5)
        f1 = initialize(M, var, cfg)
        f2 = initialize(M, var, cfg)
        assert np.array_equal(f1.W, f2.W) and np.array_equal(f1.H, f2.H)
        assert f1.W.shape == (6, 2) and f1.H.shape == (2, 5)

    def test_degenerate_bounds_constant(self):
        var = ModelVariant.bssmf(BoundsVector.constant(4, 2, 2))
        f = initialize(ObservationMask.full(4, 3), var, SolverConfig(rank=2, seed=0))
        assert np.all(f.W == 2.0)
        assert feasible(f, var)

    def test_rank_one_simplex_singleton(self):
        var = ModelVariant.bssmf(BoundsVector.constant(3, 0, 1))
        f = initialize(ObservationMask.full(3, 4), var, SolverConfig(rank=1, seed=3))
        assert np.array_equal(f.H, np.ones((1, 4)))

    def test_feasible_every_variant(self):
        for var in (
            ModelVariant.bssmf(BoundsVector.constant(5, 0, 1)),
            ModelVariant.nmf(5),
            ModelVariant.mf(5),
        ):
            f = initialize(ObservationMask.full(5, 5), var, SolverConfig(rank=3, seed=0))
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

    @pytest.mark.parametrize("extrapolate", [True, False])
    @pytest.mark.parametrize("full", [True, False])
    def test_constant_row_stays_at_its_value(self, full, extrapolate):
        # a row with a_i == b_i needs no removal before the solve: its W row
        # is that constant at the start and after every box projection
        rng = np.random.default_rng(16)
        X = rng.uniform(1, 5, size=(8, 10))
        X[3] = 2.5
        M = ObservationMask.full(8, 10) if full else random_mask(rng, 8, 10, density=0.6)
        var = ModelVariant.bssmf(infer_bounds(X, M))
        assert list(var.bounds.degenerate_rows()) == [3]
        cfg = SolverConfig(rank=3, max_outer=20, rel_tol=0.0, extrapolate=extrapolate, seed=0)
        f, _ = solve(X, M, var, cfg)
        assert np.all(f.W[3] == 2.5)
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
        W2, _ = update_W_block(mc.Workspace(X, M), W, H, var, state, W, 1, True)
        assert np.allclose(W2, W, atol=1e-12)

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

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be a non-negative integer, got -1"),
        ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ("rel_tol", np.nan, "rel_tol must be finite and >= 0, got nan"),
        ("rel_tol", np.inf, "rel_tol must be finite and >= 0, got inf"),
        ("rel_tol", -1e-6, "rel_tol must be finite and >= 0, got -1e-06"),
    ])
    def test_config_value_named_in_its_error(self, field, value, message):
        config = replace(SolverConfig(rank=2), **{field: value})
        var = ModelVariant.mf(3)
        with pytest.raises(ConfigError, match=message):
            solve(np.ones((3, 3)), ObservationMask.full(3, 3), var, config)
        with pytest.raises(ConfigError, match=message):
            solve_h(np.ones((3, 3)), ObservationMask.full(3, 3), np.ones((3, 2)), var, config)

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

    @pytest.mark.parametrize("full", [True, False])
    @pytest.mark.parametrize("solver", [solve, solve_centered])
    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_overflowed_start_stops_before_the_first_pass(self, monkeypatch, full, solver,
                                                          rank):
        # entries near 1e154: W^T W overflows at the start, and from rank 3 on
        # LAPACK does not converge on it. The solve returns its start,
        # "diverged" after 0 passes, and raises no LinAlgError.
        def no_pass(*args):
            raise AssertionError("a pass ran from a non-finite step constant")

        monkeypatch.setattr(sv, "update_H_block", no_pass)
        X = np.random.default_rng(0).uniform(0.5, 1.5, size=(5, 5)) * 1e154
        M = (ObservationMask.full(5, 5) if full
             else ObservationMask(5, 5, *np.nonzero(np.eye(5) == 0), np.ones(20)))
        var = ModelVariant.bssmf(BoundsVector.constant(5, 0, 2e154))
        config = SolverConfig(rank=rank, max_outer=3, seed=0)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            f, report = solver(X, M, var, config)
        assert (report.stop_reason, report.outer_iterations) == ("diverged", 0)
        assert report.lipschitz_trace == []
        start = initialize(M, var, config)
        assert np.array_equal(f.W, start.W) and np.array_equal(f.H, start.H)
        assert np.all(np.isfinite(f.W)) and np.all(np.isfinite(f.H)) and feasible(f, var)
        with pytest.raises(FloatingPointError,
                           match="^solve diverged with seed 0 after 0 passes$"):
            report.raise_if_diverged("with seed 0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 7, 11])  # in the first, a middle and the last block
    def test_nonfinite_entry_raises_in_any_sweep_block(self, monkeypatch, bad, row):
        monkeypatch.setattr(mc, "_SWEEP_BYTES", 8 * 5 * 2)  # 6 blocks of 2 rows
        X = np.full((12, 5), 0.5)
        X[row, 3] = bad
        M = ObservationMask.full(12, 5)
        for bounds in (None, BoundsVector.constant(12, 0, 1)):
            with pytest.raises(ValueError, match="non-finite"):
                _check_observed(X, M, bounds)

    def test_overflowing_squares_in_several_sweep_blocks_pass(self, monkeypatch):
        monkeypatch.setattr(mc, "_SWEEP_BYTES", 8 * 5 * 2)
        X = np.full((12, 5), 1e200)
        with np.errstate(over="ignore"):
            floor, _, _ = _check_observed(X, ObservationMask.full(12, 5),
                                          BoundsVector.constant(12, 0, 2e200))
        assert floor == np.inf

    def test_rounding_above_a_bound_does_not_warn(self):
        # X = WH exactly; one entry rounds to 1 + 2**-52 above b = 1
        W, H, X = generate_synthetic(SyntheticSpec(p01=0.3, seed=5001))
        assert X.max() == 1.0 + 2.0**-52
        var = ModelVariant.bssmf(BoundsVector.constant(100, 0, 1))
        cfg = SolverConfig(rank=10, max_outer=2, rel_tol=0.0, seed=0)
        solve(X, ObservationMask.full(100, 100), var, cfg)  # a warning is an error here
        for i, j, beyond in ((3, 4, 1.0 + 1e-6), (5, 6, -1e-6)):
            Y = X.copy()
            Y[i, j] = beyond
            with pytest.warns(UserWarning, match="outside"):
                solve(Y, ObservationMask.full(100, 100), var, cfg)

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


@st.composite
def frozen_w_problems(draw):
    """A full or weighted sparse mask, a variant, a frozen W of a rank up to
    three above the mask's column count, the schedule and a seed for X."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        M = ObservationMask.full(m, n)
    else:
        flat = np.array(draw(st.lists(st.integers(0, m * n - 1), min_size=1,
                                      max_size=m * n, unique=True)))
        w = draw(st.lists(st.floats(0.05, 1.0), min_size=flat.size, max_size=flat.size))
        M = ObservationMask(m, n, flat // n, flat % n, w)
    kind = draw(st.sampled_from(["bssmf", "nmf", "mf"]))
    r = draw(st.integers(1, n + 3))
    config = SolverConfig(rank=r, max_outer=draw(st.integers(1, 20)),
                          max_inner_H=draw(st.integers(1, 3)),
                          extrapolate=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    return M, kind, config, draw(st.integers(0, 2**32 - 1))


class TestSolveH:
    """solve_h is the solve loop with W frozen."""

    @settings(max_examples=150, deadline=None)
    @given(frozen_w_problems())
    def test_feasible_and_bcd_monotone(self, problem):
        M, kind, config, seed = problem
        rng = np.random.default_rng(seed)
        X = rng.uniform(1, 5, size=(M.rows, M.cols))
        W = rng.uniform(1, 5, size=(M.rows, config.rank))
        var = ModelVariant.from_kind(kind, BoundsVector.constant(M.rows, 1, 5))
        H, rep = solve_h(X, M, W, var, config)  # a rank above M.cols is no error
        assert H.shape == (config.rank, M.cols) and np.all(np.isfinite(H))
        assert feasible(FactorPair(W, H), var)
        assert rep.stop_reason == "max_iters" and rep.outer_iterations == 1
        f0, f1 = rep.objective_trace
        assert f1 == pytest.approx(objective(X, W, H, M), rel=1e-12, abs=1e-300)
        if not config.extrapolate:
            assert f1 <= f0 + 1e-12 * f0


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
        floor, c_seen, _ = _check_observed(x, M, center=True)
        assert c_seen == c  # a sparse mask's sum is np.mean's, bit for bit
        assert floor == pytest.approx(shifted, rel=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_only_a_centered_check_takes_the_plain_sum(self, monkeypatch, sparse):
        """floor and sum_sq are those of the whole sweep, c its sum over nnz bit
        for bit, and an uncentered check asks the sweep for no plain sum."""
        rng = np.random.default_rng(7)
        X = rng.uniform(40.0, 60.0, size=(30, 20))
        M = random_mask(rng, 30, 20, density=0.5) if sparse else ObservationMask.full(30, 20)
        x = M.observed(X)
        monkeypatch.setattr(mc, "_SWEEP_BYTES", 8 * 20 * 7)  # a full mask's rows in 5 blocks
        total, sum_sq, _, _ = M.sweep(x)
        totals = []
        sweep = ObservationMask.sweep

        def recording(self, *args, **kwargs):
            out = sweep(self, *args, **kwargs)
            totals.append(out[0])
            return out

        monkeypatch.setattr(ObservationMask, "sweep", recording)
        floor, c, seen_sq = _check_observed(x, M)
        assert (floor, c, seen_sq) == (1e-12 * max(1.0, sum_sq / X.size), 0.0, sum_sq)
        floor, c, seen_sq = _check_observed(x, M, center=True)
        assert c == total / M.nnz and seen_sq == sum_sq
        assert floor == 1e-12 * max(1.0, (sum_sq - M.nnz * c * c) / X.size)
        assert totals == [None, total]

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


class TestObservedValues:
    """A sparse mask's data may be given as its values, M.values, in place of
    the dense matrix; a full mask's values are the matrix itself."""

    @pytest.mark.parametrize("mask", ["full", "weighted", "unit"])
    @pytest.mark.parametrize("kind", ["bssmf", "nmf", "mf"])
    def test_values_fit_bit_equal_to_dense(self, mask, kind):
        m, n, r = 14, 11, 3
        rng = np.random.default_rng(12)
        X = rng.uniform(1, 5, size=(m, n))
        rows, cols = np.nonzero(rng.uniform(size=(m, n)) < 0.5)
        weights = rng.uniform(0.1, 1.0, rows.size) if mask == "weighted" else np.ones(rows.size)
        M = (ObservationMask.full(m, n) if mask == "full"
             else ObservationMask(m, n, rows, cols, weights, X[rows, cols]))
        x = X if mask == "full" else M.values
        assert np.array_equal(infer_bounds(x, M).lower, infer_bounds(X, M).lower)
        variant = ModelVariant.from_kind(kind, BoundsVector.constant(m, 1.0, 5.0))
        for center in (False, True) if kind == "bssmf" else (False,):
            for extrapolate in (True, False):
                config = SolverConfig(rank=r, max_outer=15, max_inner_W=2, max_inner_H=2,
                                      extrapolate=extrapolate, center=center, seed=5)
                (fx, rx), (fX, rX) = (solve(A, M, variant, config) for A in (x, X))
                assert np.array_equal(fx.W, fX.W) and np.array_equal(fx.H, fX.H)
                assert rx.objective_trace == rX.objective_trace
                assert rx.lipschitz_trace == rX.lipschitz_trace
                assert (rx.stop_reason, rx.outer_iterations) == (rX.stop_reason,
                                                                  rX.outer_iterations)
                assert np.array_equal(solve_h_given_w(x, M, fX.W, variant, config),
                                      solve_h_given_w(X, M, fX.W, variant, config))


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


def _exact_or_noisy(rng, m, n, r, exact):
    """X = W0 H0 with W0 in [1, 5] and H0 on the simplex; unless exact, with
    noise added and clipped to [1, 5]."""
    X = rng.uniform(1, 5, size=(m, r)) @ project_simplex_columns(rng.uniform(size=(r, n)))
    return X if exact else np.clip(X + 0.3 * rng.standard_normal((m, n)), 1, 5)


@st.composite
def full_mask_fits(draw):
    """A full-mask problem, exact or noisy, a variant, and a config with
    rel_tol 0 and every objective recorded."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    r = draw(st.integers(1, min(m, n)))
    X = _exact_or_noisy(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n, r,
                        exact=draw(st.booleans()))
    kind = draw(st.sampled_from(["bssmf", "nmf", "mf"]))
    config = SolverConfig(rank=r, max_inner_W=draw(st.integers(1, 3)),
                          max_inner_H=draw(st.integers(1, 3)), rel_tol=0.0,
                          extrapolate=draw(st.booleans()),
                          center=kind == "bssmf" and draw(st.booleans()),
                          seed=draw(st.integers(0, 99)))
    return X, kind, config


class TestGramObjective:
    """A full-mask solve takes its objectives in the Gram form from products it
    forms anyway, until that form declines; its factors are those of the
    residual form."""

    @staticmethod
    def _declined(monkeypatch):
        monkeypatch.setattr(mc, "gram_objective", lambda *args, **kwargs: None)

    @pytest.mark.parametrize("kind, center", [("bssmf", False), ("bssmf", True),
                                              ("nmf", False), ("mf", False)])
    @pytest.mark.parametrize("extrapolate", [True, False])
    @pytest.mark.parametrize("record_trace", [True, False])
    def test_factors_are_those_of_the_residual_form(self, monkeypatch, kind, center,
                                                    extrapolate, record_trace):
        X = _exact_or_noisy(np.random.default_rng(21), 30, 25, 3, exact=False)
        M = ObservationMask.full(*X.shape)
        var = ModelVariant.from_kind(kind, BoundsVector.constant(30, 1, 5))
        cfg = SolverConfig(rank=3, max_outer=25, max_inner_W=3, max_inner_H=3, rel_tol=0.0,
                           extrapolate=extrapolate, center=center, seed=3,
                           record_trace=record_trace)
        f, rep = solve(X, M, var, cfg)
        self._declined(monkeypatch)
        f_res, rep_res = solve(X, M, var, cfg)
        assert np.array_equal(f.W, f_res.W) and np.array_equal(f.H, f_res.H)
        assert (rep.stop_reason, rep.outer_iterations) == (rep_res.stop_reason,
                                                           rep_res.outer_iterations)
        assert rep.lipschitz_trace == rep_res.lipschitz_trace
        assert rep.objective_trace == pytest.approx(rep_res.objective_trace, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(full_mask_fits())
    def test_each_objective_is_that_of_its_iterate(self, problem):
        X, kind, config = problem
        M = ObservationMask.full(*X.shape)
        var = ModelVariant.from_kind(kind, BoundsVector.constant(M.rows, 1, 5))
        for k in range(1, 7):
            f, rep = solve(X, M, var, replace(config, max_outer=k))
            assert rep.objective_trace[-1] == pytest.approx(objective(X, f.W, f.H, M),
                                                            rel=1e-12, abs=1e-300)

    @staticmethod
    def _count(monkeypatch, name):
        """The calls to mc.<name> from now on, one entry per call."""
        counted = []
        inner = getattr(mc, name)

        def counting(*args, **kwargs):
            counted.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mc, name, counting)
        return counted

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    def test_noisy_fit_forms_no_residual(self, monkeypatch, solver):
        counted = self._count(monkeypatch, "objective")
        X = _exact_or_noisy(np.random.default_rng(22), 20, 15, 3, exact=False)
        var = ModelVariant.bssmf(BoundsVector.constant(20, 1, 5))
        _, rep = solver(X, ObservationMask.full(20, 15), var,
                        SolverConfig(rank=3, max_outer=30, rel_tol=0.0, seed=1))
        assert len(rep.objective_trace) == 31 and counted == []

    @pytest.mark.parametrize("seed", [1, 4])
    def test_exact_fit_falls_back_to_the_residual(self, monkeypatch, seed):
        counted = self._count(monkeypatch, "objective")
        tried = self._count(monkeypatch, "gram_objective")
        X = _exact_or_noisy(np.random.default_rng(0), 12, 10, 2, exact=True)
        _, rep = solve(X, ObservationMask.full(12, 10), ModelVariant.nmf(12),
                       SolverConfig(rank=2, max_outer=300, seed=seed))
        assert rep.stop_reason == "tol_reached"
        # the Gram form is tried until it first declines, the residual form from then on
        assert 0 < len(counted) < len(rep.objective_trace)
        assert len(tried) + len(counted) == len(rep.objective_trace) + 1
        assert rep.objective_trace[-1] < 1e-20 * rep.objective_trace[0]

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    @pytest.mark.parametrize("record_trace", [True, False])
    def test_overflowing_squares_add_no_warning(self, monkeypatch, solver, record_trace):
        """Finite data whose squares overflow still stops "diverged" after no
        pass, with the warnings of the residual form alone: the Gram form is
        declined before any product, so it adds none."""
        X = np.full((4, 3), 1e200)
        var = ModelVariant.bssmf(BoundsVector.constant(4, 0, 2e200))
        cfg = SolverConfig(rank=2, max_outer=2, seed=0, record_trace=record_trace)
        caught = []
        for declined in (False, True):
            if declined:
                self._declined(monkeypatch)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                f, rep = solver(X, ObservationMask.full(4, 3), var, cfg)
            assert (rep.stop_reason, rep.outer_iterations) == ("diverged", 0)
            assert np.all(np.isfinite(f.W)) and np.all(np.isfinite(f.H))
            caught.append([str(w.message) for w in seen])
        assert caught[0] == caught[1]
        assert not any("invalid" in message for message in caught[0])


class TestWorkspaceProducts:
    """A solve's Workspace forms each product of a factor once and hands it
    back only for that same array."""

    @staticmethod
    def _count_forms(monkeypatch):
        """The products formed from now on, as (kind, side) per product."""
        formed = []
        form = mc.Workspace._form

        def counting(kind, side, F, x):
            formed.append((kind, side))
            return form(kind, side, F, x)

        monkeypatch.setattr(mc.Workspace, "_form", staticmethod(counting))
        return formed

    @pytest.mark.parametrize("solver", [solve, solve_centered])
    @pytest.mark.parametrize("record_trace", [True, False])
    def test_a_pass_forms_two_products_with_x(self, monkeypatch, solver, record_trace):
        """P passes form 2P products with X (XH^T per W block, W^TX per H
        block, and no other) and each Gram matrix once per factor."""
        formed = self._count_forms(monkeypatch)
        X = _exact_or_noisy(np.random.default_rng(23), 20, 15, 3, exact=False)
        var = ModelVariant.bssmf(BoundsVector.constant(20, 1, 5))
        passes = 7
        _, rep = solver(X, ObservationMask.full(20, 15), var,
                        SolverConfig(rank=3, max_outer=passes, rel_tol=0.0, seed=1,
                                     record_trace=record_trace))
        assert rep.outer_iterations == passes
        assert formed.count(("cross", "W")) == formed.count(("cross", "H")) == passes
        assert formed.count(("gram", "W")) == formed.count(("gram", "H")) == passes + 1

    def test_an_equal_copy_is_another_factor(self, monkeypatch):
        """The held products are matched by identity: a step map given an
        equal-valued copy of the frozen factor forms them again."""
        rng = np.random.default_rng(24)
        X, H = rng.uniform(size=(6, 5)), rng.uniform(size=(2, 5))
        M = ObservationMask.full(6, 5)
        work = mc.Workspace(X, M)
        formed = self._count_forms(monkeypatch)
        steps = [mc.step_map(work, F, "W", 4.0) for F in (H, H, H.copy())]
        assert formed == [("gram", "W"), ("cross", "W")] * 2
        W_bar = rng.uniform(size=(6, 2))
        assert all(np.array_equal(step(W_bar), steps[0](W_bar)) for step in steps)

    @settings(max_examples=60, deadline=None)
    @given(frozen_w_problems(), st.booleans())
    def test_full_mask_solve_h_takes_the_gram_form(self, problem, record_trace):
        """solve_h on a full mask ends within rel 1e-12 of the residual
        objective at its H, with no residual objective unless the Gram form
        declines."""
        M, kind, config, seed = problem
        M = ObservationMask.full(M.rows, M.cols)
        rng = np.random.default_rng(seed)
        X = rng.uniform(1, 5, size=(M.rows, M.cols))
        W = rng.uniform(1, 5, size=(M.rows, config.rank))
        var = ModelVariant.from_kind(kind, BoundsVector.constant(M.rows, 1, 5))
        residual, gram = [], []
        inner_objective, inner_gram = mc.objective, mc.gram_objective

        def counting(*args):
            residual.append(1)
            return inner_objective(*args)

        def recording(*args):
            gram.append(inner_gram(*args))
            return gram[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc, "objective", counting)
            mp.setattr(mc, "gram_objective", recording)
            H, rep = solve_h(X, M, W, var, replace(config, record_trace=record_trace))
        assert rep.objective_trace[-1] == pytest.approx(objective(X, W, H, M), rel=1e-12,
                                                        abs=1e-300)
        if None not in gram:
            assert residual == []
        else:  # tried until it first declines, the residual form from then on
            assert gram.index(None) == len(gram) - 1
            assert len(gram) + len(residual) == len(rep.objective_trace) + 1


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

    def test_each_bound_has_its_own_slack(self):
        """With bounds [-1e9, 1], a feasible W and simplex columns that put
        no weight on the vertex at 1, WH lands up to about 1e-7 below -1e9:
        inside the lower bound's slack (1.0), outside the upper one's (1e-9)."""
        bounds = BoundsVector(np.array([-1e9]), np.array([1.0]))
        W = np.array([[-1e9, -1e9, 1.0]])
        H = project_simplex_columns(np.random.default_rng(0).uniform(size=(3, 2000)))
        H[2] = 0.0
        H[1] = 1.0 - H[0]
        cols = np.arange(H.shape[1])
        vals = predict_cells(W, H, np.zeros_like(cols), cols, bounds=bounds)
        assert np.all(vals >= -1e9)  # clipped
        assert np.any(mc.product_at(W, H, np.zeros_like(cols), cols) < -1e9 - 1e-9)

    @pytest.mark.parametrize("value", [-1e9 - 2.0, 1.0 + 2e-9])
    def test_two_slacks_beyond_either_bound_raises(self, value):
        bounds = BoundsVector(np.array([-1e9]), np.array([1.0]))
        with pytest.raises(ValueError, match="escapes"):
            predict_cells(np.array([[value]]), np.array([[1.0]]), [0], [0], bounds=bounds)


class TestInnerStep:
    def test_momentum_weights_match_numpy_sqrt_formula(self):
        """math.sqrt and np.sqrt round alike, so 1000 steps give the same weights."""
        from bssmf.solver import _BlockState

        def numpy_beta(state, extrapolate):
            a0 = state.alpha
            state.alpha = (1.0 + np.sqrt(1.0 + 4.0 * a0 * a0)) / 2.0
            if not extrapolate:
                return 0.0
            return min((a0 - 1.0) / state.alpha, 0.9999 * np.sqrt(state.L_prev / state.L))

        rng = np.random.default_rng(16)
        Ls = np.exp(rng.uniform(-8, 8, size=1000))
        for extrapolate in (True, False):
            ours, ref = _BlockState(Ls[0]), _BlockState(Ls[0])
            for L in Ls:
                for state in (ours, ref):
                    state.L = float(L)
                assert ours.beta(extrapolate) == numpy_beta(ref, extrapolate)
                assert ours.alpha == ref.alpha
                for state in (ours, ref):
                    state.L_prev = state.L

    @pytest.mark.parametrize("sparse", [False, True])
    def test_writes_no_caller_array(self, sparse):
        """The in-place step arithmetic writes only arrays it made: read-only
        data, factors and previous iterates go through every entry point."""
        from bssmf.evaluation import solve_h_given_w
        from bssmf.projections import project_simplex_columns
        from bssmf.solver import _BlockState, update_H_block, update_W_block

        rng = np.random.default_rng(17)
        m, n, r = 11, 9, 3
        X = rng.uniform(1, 5, size=(m, n))
        M = random_mask(rng, m, n, density=0.6, weighted=True) if sparse \
            else ObservationMask.full(m, n)
        W, W_old = rng.uniform(1, 5, size=(m, r)), rng.uniform(1, 5, size=(m, r))
        H = project_simplex_columns(rng.uniform(size=(r, n)))
        H_old = project_simplex_columns(rng.uniform(size=(r, n)))
        arrays = (X, W, W_old, H, H_old)
        copies = [A.copy() for A in arrays]
        for A in arrays:
            A.flags.writeable = False
        for kind in ("bssmf", "nmf", "mf"):
            var = ModelVariant.from_kind(kind, BoundsVector.constant(m, 1.0, 5.0))
            cfg = SolverConfig(rank=r, max_outer=3, max_inner_W=2, max_inner_H=2,
                               rel_tol=0.0, seed=1)
            solve(X, M, var, cfg)
            if kind == "bssmf":
                solve_centered(X, M, var, cfg)
            for F_old in (W_old, W):  # a previous iterate, or F itself
                update_W_block(mc.Workspace(X, M), W, H, var, _BlockState(10.0), F_old, 3, True)
            if not sparse:  # H H^T and X H^T held read-only, as a solve's objective leaves them
                work = mc.Workspace(X, M)
                for held in (work.product("gram", "W", H), work.product("cross", "W", H)):
                    held.flags.writeable = False
                update_W_block(work, W, H, var, _BlockState(10.0), W_old, 3, True)
            for F_old in (H_old, H):
                update_H_block(mc.Workspace(X, M), W, H, var, _BlockState(10.0), F_old, 3, True)
            solve_h_given_w(X, M, W, var, cfg)
        for A, before in zip(arrays, copies):
            assert np.array_equal(A, before)
