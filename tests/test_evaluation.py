import numpy as np
import pytest

from bssmf.evaluation import (
    Fold,
    RatingsDataset,
    SplitSpec,
    evaluate_fold,
    overfitting_sweep,
    rmse,
    solve_h_given_w,
    split,
)
from bssmf.matrixcore import ObservationMask
from bssmf.projections import project_simplex_columns
from bssmf.solver import SolverConfig


def synthetic_ratings(rng, num_users=40, num_items=30, r=3, per_user=12,
                      noise=0.0, value_range=(1.0, 5.0)):
    """Exactly realizable ratings: X = W H with W in [1,5], stochastic H."""
    lo, hi = value_range
    W = rng.uniform(lo, hi, size=(num_items, r))
    H = project_simplex_columns(rng.uniform(size=(r, num_users)))
    X = W @ H + noise * rng.standard_normal((num_items, num_users))
    ratings = []
    for u in range(num_users):
        items = rng.choice(num_items, size=per_user, replace=False)
        for i in items:
            ratings.append((u, int(i), float(np.clip(X[i, u], lo, hi)), None))
    return RatingsDataset(num_users, num_items, ratings, value_range), W, H


class TestRMSE:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert rmse([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_hand_case(self):
        assert rmse([1.0, 3.0], [2.0, 5.0]) == pytest.approx(np.sqrt(2.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])


class TestSplit:
    def test_known_heldout_counts(self):
        rng = np.random.default_rng(0)
        ds, _, _ = synthetic_ratings(rng, num_users=20, per_user=10)
        fold = split(ds, SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=1))
        counts = {}
        for j in fold.M_known.col_idx:
            counts[j] = counts.get(j, 0) + 1
        held = {}
        for j in fold.M_heldout.col_idx:
            held[j] = held.get(j, 0) + 1
        for j, k in counts.items():
            total = k + held.get(j, 0)
            assert k == int(np.ceil(0.8 * total))

    def test_same_seed_identical(self):
        rng = np.random.default_rng(1)
        ds, _, _ = synthetic_ratings(rng)
        spec = SplitSpec(test_user_count=5, min_ratings_per_item=1, seed=7)
        f1, f2 = split(ds, spec), split(ds, spec)
        assert np.array_equal(f1.M_known.row_idx, f2.M_known.row_idx)
        assert np.array_equal(f1.M_heldout.col_idx, f2.M_heldout.col_idx)
        assert np.array_equal(f1.X_train, f2.X_train)

    def test_masks_disjoint_and_cover(self):
        rng = np.random.default_rng(2)
        ds, _, _ = synthetic_ratings(rng)
        fold = split(ds, SplitSpec(test_user_count=6, min_ratings_per_item=1, seed=3))
        known = set(zip(fold.M_known.row_idx.tolist(), fold.M_known.col_idx.tolist()))
        held = set(zip(fold.M_heldout.row_idx.tolist(), fold.M_heldout.col_idx.tolist()))
        assert not known & held
        total = fold.M_train.nnz + fold.M_known.nnz + fold.M_heldout.nnz
        # items all survive the min_ratings=1 filter, so every rating lands somewhere
        assert total == len(ds.ratings)

    def test_item_filter(self):
        ratings = [(0, 0, 3.0, None), (1, 0, 4.0, None), (0, 1, 2.0, None),
                   (1, 1, 5.0, None), (2, 0, 1.0, None), (2, 1, 2.0, None)]
        ds = RatingsDataset(3, 2, ratings)
        fold = split(ds, SplitSpec(test_user_count=1, min_ratings_per_item=3, seed=0))
        assert fold.num_items == 2  # both items have 3 ratings

    def test_duplicate_rating_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RatingsDataset(2, 2, [(0, 0, 3.0, None), (0, 0, 4.0, None)])


class TestEvaluateFold:
    def test_realizable_data_near_zero_rmse(self):
        rng = np.random.default_rng(3)
        ds, _, _ = synthetic_ratings(rng, num_users=30, num_items=20, r=2,
                                     per_user=15)
        fold = split(ds, SplitSpec(test_user_count=5, min_ratings_per_item=1, seed=0))
        cfg = SolverConfig(rank=2, max_outer=400, max_inner_W=5, max_inner_H=5,
                           rel_tol=0.0, seed=0, record_trace=False)
        rep = evaluate_fold(fold, "bssmf", cfg)
        assert rep.rmse_test <= 1e-3

    def test_constant_fit_closed_form(self):
        # rank-1 unconstrained fit of a column approaches the known-ratings
        # mean; held-out RMSE then has a closed form around that constant
        rng = np.random.default_rng(4)
        ds, _, _ = synthetic_ratings(rng, num_users=25, num_items=15, r=3,
                                     per_user=12, noise=0.5)
        fold = split(ds, SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=2))
        cfg = SolverConfig(rank=1, max_outer=300, max_inner_W=3, max_inner_H=3,
                           rel_tol=0.0, seed=1, record_trace=False)
        rep = evaluate_fold(fold, "mf", cfg)
        assert rep.rmse_test < 4.0 and rep.rmse_test > 0.0

    def test_bssmf_predictions_in_range(self):
        rng = np.random.default_rng(5)
        ds, _, _ = synthetic_ratings(rng, noise=1.0)
        fold = split(ds, SplitSpec(test_user_count=5, min_ratings_per_item=1, seed=1))
        cfg = SolverConfig(rank=3, max_outer=50, max_inner_W=1, max_inner_H=1,
                           rel_tol=0.0, seed=0, record_trace=False)
        # the bound check inside predict_cells raises if any prediction
        # escapes [1, 5]
        rep = evaluate_fold(fold, "bssmf", cfg)
        assert rep.rmse_test >= 0

    def test_leaked_heldout_cell_rejected(self):
        X = np.full((3, 2), 3.0)
        known = ObservationMask(3, 2, [0, 1, 2], [0, 1, 1], np.ones(3))
        held = ObservationMask(3, 2, [1, 2], [0, 1], np.ones(2))  # (2, 1) is in both
        fold = Fold(X_train=X, M_train=ObservationMask.full(3, 2), X_test=X,
                    M_known=known, M_heldout=held, num_items=3)
        with pytest.raises(ValueError, match="leaked"):
            evaluate_fold(fold, "bssmf", SolverConfig(rank=1, max_outer=1))


class TestSweep:
    def test_single_cell_matches_evaluate_fold(self):
        rng = np.random.default_rng(6)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        reports = overfitting_sweep(ds, spec, [2], ["nmf"], [0], max_outer=30)
        assert len(reports) == 1
        fold = split(ds, spec)
        cfg = SolverConfig(rank=2, max_outer=30, max_inner_W=1, max_inner_H=1,
                           rel_tol=0.0, seed=0, record_trace=False)
        direct = evaluate_fold(fold, "nmf", cfg)
        assert reports[0].rmse_test == pytest.approx(direct.rmse_test, rel=1e-12)

    def test_grid_shape(self):
        rng = np.random.default_rng(7)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        reports = overfitting_sweep(ds, spec, [1, 2], ["bssmf", "mf"], [0],
                                    max_outer=10)
        assert len(reports) == 4

    def test_single_seed_zero_std(self):
        rng = np.random.default_rng(8)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        reports = overfitting_sweep(ds, spec, [2], ["mf"], [0], max_outer=10)
        assert reports[0].rmse_std == 0.0


class TestSolveHGivenW:
    def test_recovers_h_for_exact_data(self):
        rng = np.random.default_rng(9)
        from bssmf.matrixcore import ObservationMask
        from bssmf.projections import BoundsVector
        from bssmf.solver import ModelVariant
        W = rng.uniform(1, 5, size=(12, 2))
        H = project_simplex_columns(rng.uniform(size=(2, 8)))
        X = W @ H
        var = ModelVariant.bssmf(BoundsVector.constant(12, 1, 5))
        cfg = SolverConfig(rank=2, max_outer=300, max_inner_H=3, seed=0)
        M = ObservationMask.full(12, 8)
        H_fit = solve_h_given_w(X, M, W, var, cfg)
        assert np.allclose(W @ H_fit, X, atol=1e-5)
