import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bssmf.projections import BoundsVector, project_simplex_columns
from bssmf.solver import (
    ConfigError,
    ModelVariant,
    SolverConfig,
    predict_cells,
    solve_centered,
)


def synthetic_ratings(rng, num_users=40, num_items=30, r=3, per_user=12,
                      noise=0.0, value_range=(1.0, 5.0)):
    """Exactly realizable ratings: X = W H with W in [1,5], stochastic H."""
    lo, hi = value_range
    W = rng.uniform(lo, hi, size=(num_items, r))
    H = project_simplex_columns(rng.uniform(size=(r, num_users)))
    X = W @ H + noise * rng.standard_normal((num_items, num_users))
    users = np.repeat(np.arange(num_users), per_user)
    items = np.concatenate([rng.choice(num_items, size=per_user, replace=False)
                            for _ in range(num_users)])
    values = np.clip(X[items, users], lo, hi)
    return RatingsDataset(num_users, num_items, users, items, values, value_range), W, H


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
        assert total == ds.values.size

    def test_item_filter(self):
        ds = RatingsDataset(3, 2, [0, 1, 0, 1, 2, 2], [0, 0, 1, 1, 0, 1],
                            [3.0, 4.0, 2.0, 5.0, 1.0, 2.0])
        fold = split(ds, SplitSpec(test_user_count=1, known_fraction=0.5,
                                   min_ratings_per_item=3, seed=0))
        assert fold.num_items == 2  # both items have 3 ratings

    def test_no_test_user_with_a_rating_to_hold_out_raises(self):
        """12 users with 3 ratings each: at known_fraction 0.8 every test user
        keeps all 3 as known, so nothing would be held out."""
        users, items = np.divmod(np.arange(36), 3)
        ds = RatingsDataset(12, 3, users, items, np.ones(36))
        with pytest.raises(ValueError, match="hold out"):
            split(ds, SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=0))

    def test_test_users_without_a_held_out_rating_are_skipped(self):
        """Users 0-5 have 4 ratings (ceil(0.8 * 4) = 4, none held out), users
        6-11 have 5 (4 known, 1 held out). Every test user left in the fold
        has a held-out rating, and the others are counted as skipped."""
        users = np.repeat(np.arange(12), [4] * 6 + [5] * 6)
        items = np.concatenate([np.arange(4)] * 6 + [np.arange(5)] * 6)
        ds = RatingsDataset(12, 5, users, items, np.ones(users.size))
        spec = SplitSpec(test_user_count=8, min_ratings_per_item=1, seed=0)
        test_users = np.random.default_rng(0).choice(12, size=8, replace=False)
        with pytest.warns(UserWarning, match="no rating left to hold out"):
            fold = split(ds, spec)
        assert fold.skipped_test_users == int(np.sum(test_users < 6))
        assert fold.M_known.cols == int(np.sum(test_users >= 6))
        held = np.bincount(fold.M_heldout.col_idx, minlength=fold.M_heldout.cols)
        assert np.all(held == 1)

    def test_duplicate_rating_rejected(self):
        with pytest.raises(ValueError, match="duplicate rating for user 0, item 0"):
            RatingsDataset(2, 2, [0, 0], [0, 0], [3.0, 4.0])

    @pytest.mark.parametrize("count", [0, -1])
    def test_test_user_count_below_one_rejected(self, count):
        rng = np.random.default_rng(0)
        ds, _, _ = synthetic_ratings(rng, num_users=20, per_user=10)
        with pytest.raises(ValueError, match=f"test_user_count must be at least 1, got {count}"):
            split(ds, SplitSpec(test_user_count=count, min_ratings_per_item=1))

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        rng = np.random.default_rng(0)
        ds, _, _ = synthetic_ratings(rng, num_users=20, per_user=10)
        with pytest.raises(ValueError, match=f"split seed must be a non-negative integer, "
                                             f"got {seed}"):
            split(ds, SplitSpec(test_user_count=2, min_ratings_per_item=1, seed=seed))

    def test_more_users_than_ml10m_matches_the_oracle(self):
        """70,000 users (ml-10m has 69,878) of 1-8 ratings over 30 items, in
        random file order: each mask is the one built from the oracle's cells."""
        rng = np.random.default_rng(5)
        num_users, num_items = 70_000, 30
        degree = rng.integers(1, 9, num_users)
        users = np.repeat(np.arange(num_users), degree)
        items = np.concatenate([rng.choice(num_items, size=k, replace=False)
                                for k in degree.tolist()])
        order = rng.permutation(users.size)
        ds = RatingsDataset(num_users, num_items, users[order], items[order],
                            rng.integers(1, 6, users.size)[order])
        spec = SplitSpec(test_user_count=2000, min_ratings_per_item=5, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fold = split(ds, spec)
        _assert_fold_is_reference(fold, ds, spec)


class TestRatingsDataset:
    def test_duplicate_named_by_raw_ids(self):
        with pytest.raises(ValueError, match="user u7, item i100"):
            RatingsDataset(2, 2, [1, 0, 1], [0, 1, 0], [3.0, 4.0, 5.0],
                           user_map={"u9": 0, "u7": 1}, item_map={"i100": 0, "i5": 1})

    @pytest.mark.parametrize("users, items, match", [
        ([0, -1], [0, 1], "user id"),
        ([0, 2], [0, 1], "user id"),
        ([0, 1], [-1, 1], "item id"),
        ([0, 1], [0, 2], "item id"),
    ])
    def test_id_out_of_range_rejected(self, users, items, match):
        with pytest.raises(ValueError, match=match):
            RatingsDataset(2, 2, users, items, [3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("maps, named", [
        ({}, "user 1, item 0"),
        ({"user_map": {"u9": 0, "u7": 1}, "item_map": {"i100": 0, "i5": 1}},
         "user u7, item i100"),
    ])
    def test_nonfinite_rating_rejected(self, bad, maps, named):
        with pytest.raises(ValueError, match=f"non-finite rating .* for {named}"):
            RatingsDataset(2, 2, [0, 1], [1, 0], [3.0, bad], **maps)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            RatingsDataset(2, 2, [0, 1], [0, 1], [3.0])

    def test_arrays_stored_as_numpy(self):
        ds = RatingsDataset(2, 3, [1, 0], [2, 0], [4, 5])
        assert ds.users.dtype == np.intp and ds.items.dtype == np.intp
        assert ds.values.dtype == np.float64
        assert ds.user_map == {} and ds.item_map == {}


@st.composite
def small_datasets(draw):
    """3-8 users and 3-40 items in random rating order, each (user, item)
    pair rated at most once."""
    num_users = draw(st.integers(3, 8))
    num_items = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(num_users * num_items // 4 + 1, num_users * num_items))
    users, items = np.divmod(rng.choice(num_users * num_items, size=nnz, replace=False),
                             num_items)
    ds = RatingsDataset(num_users, num_items, users, items, rng.integers(1, 6, nnz))
    spec = SplitSpec(test_user_count=draw(st.integers(1, num_users - 1)),
                     known_fraction=draw(st.sampled_from([0.5, 0.8, 0.9])),
                     min_ratings_per_item=draw(st.integers(1, 3)),
                     seed=draw(st.integers(0, 2**16)))
    return ds, spec


def _split_or_none(ds, spec):
    """split, or None where the oracle finds no training or no usable test
    cell (split must then raise)."""
    train, test, _, _ = _reference_cells(ds, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if train and test:
            return split(ds, spec)
        with pytest.raises(ValueError):
            split(ds, spec)
    return None


def _reference_cells(ds, spec):
    """Per-rating loop oracle of the split: {(row, col): value} for the
    training and the test side, the known test cells, and the number of
    skipped test users.

    Rows are the kept items and columns the users, each in increasing id
    order. The split's generator draws the test users, then one permutation
    of each usable test user's ratings (in dataset order), users in id order.
    """
    kept = np.bincount(ds.items, minlength=ds.num_items) >= spec.min_ratings_per_item
    row_of = {int(i): k for k, i in enumerate(np.flatnonzero(kept))}
    rng = np.random.default_rng(spec.seed)
    test_users = set(rng.choice(ds.num_users, size=spec.test_user_count, replace=False).tolist())
    by_user = {}
    for u, i, v in zip(ds.users.tolist(), ds.items.tolist(), ds.values.tolist()):
        if i in row_of:
            by_user[u] = by_user.get(u, []) + [(row_of[i], v)]
    train = sorted(u for u in by_user if u not in test_users)
    usable = sorted(u for u in test_users
                    if math.ceil(spec.known_fraction * (k := len(by_user.get(u, [])))) < k)
    side = [{(i, j): v for j, u in enumerate(users) for i, v in by_user[u]}
            for users in (train, usable)]
    known = set()
    for j, u in enumerate(usable):
        order = rng.permutation(len(by_user[u]))
        n_known = math.ceil(spec.known_fraction * len(by_user[u]))
        known |= {(by_user[u][k][0], j) for k in order[:n_known]}
    return side[0], side[1], known, len(test_users) - len(usable)


def _cells(M):
    return set(zip(M.row_idx.tolist(), M.col_idx.tolist()))


def _assert_fold_is_reference(fold, ds, spec):
    """Each mask of fold is array-equal, dtypes included, to the
    ObservationMask built from the oracle's cells of its side."""
    train, test, known, _ = _reference_cells(ds, spec)
    rows = int(np.sum(np.bincount(ds.items, minlength=ds.num_items)
                      >= spec.min_ratings_per_item))
    test_cols = 1 + max(j for _, j in test)  # each usable test user has a cell
    sides = ((fold.M_train, train, 1 + max(j for _, j in train)),
             (fold.M_known, {c: v for c, v in test.items() if c in known}, test_cols),
             (fold.M_heldout, {c: v for c, v in test.items() if c not in known}, test_cols))
    for M, cells, cols in sides:
        i, j = np.array(list(cells), dtype=np.intp).reshape(-1, 2).T
        ref = ObservationMask(rows, cols, i, j, np.ones(i.size), list(cells.values()))
        assert (M.rows, M.cols) == (ref.rows, ref.cols)
        for name in ("row_idx", "col_idx", "weights", "values"):
            got, want = getattr(M, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestSplitProperties:
    @settings(max_examples=100, deadline=None)
    @given(small_datasets())
    def test_masks_partition_kept_ratings(self, case):
        ds, spec = case
        fold = _split_or_none(ds, spec)
        if fold is None:
            return
        train, test, ref_known, skipped = _reference_cells(ds, spec)
        known, held = _cells(fold.M_known), _cells(fold.M_heldout)
        assert _cells(fold.M_train) == set(train)
        assert known | held == set(test) and not known & held
        assert known == ref_known
        assert fold.skipped_test_users == skipped
        # each kept rating is placed once, except the k of each skipped test
        # user (ceil(known_fraction * k) = k)
        kept = np.bincount(ds.items, minlength=ds.num_items) >= spec.min_ratings_per_item
        unplaced = int(kept[ds.items].sum()) - len(train) - len(test)
        test_users = np.random.default_rng(spec.seed).choice(
            ds.num_users, size=spec.test_user_count, replace=False)
        k = np.bincount(ds.users[kept[ds.items]], minlength=ds.num_users)[test_users]
        assert unplaced == int(k[np.ceil(spec.known_fraction * k) >= k].sum())

    @settings(max_examples=100, deadline=None)
    @given(small_datasets())
    def test_known_count_per_test_user(self, case):
        ds, spec = case
        fold = _split_or_none(ds, spec)
        if fold is None:
            return
        k_known = np.bincount(fold.M_known.col_idx, minlength=fold.M_known.cols)
        k_held = np.bincount(fold.M_heldout.col_idx, minlength=fold.M_heldout.cols)
        for known, held in zip(k_known.tolist(), k_held.tolist()):
            assert known + held >= 2
            assert known == math.ceil(spec.known_fraction * (known + held))

    @settings(max_examples=100, deadline=None)
    @given(small_datasets())
    def test_matrices_hold_ratings_at_mask_cells(self, case):
        ds, spec = case
        fold = _split_or_none(ds, spec)
        if fold is None:
            return
        train, test, _, _ = _reference_cells(ds, spec)
        for masks, cells in (((fold.M_train,), train), ((fold.M_known, fold.M_heldout), test)):
            held = sorted(((i, j), v) for M in masks for i, j, v in
                          zip(M.row_idx.tolist(), M.col_idx.tolist(), M.values.tolist()))
            assert held == sorted(cells.items())
        expected = np.zeros((fold.M_train.rows, fold.M_train.cols))
        for (i, j), v in train.items():
            expected[i, j] = v
        assert np.array_equal(fold.X_train, expected)
        for M in (fold.M_train, fold.M_known, fold.M_heldout):
            assert np.all(M.values >= 1)
            assert np.array_equal(M.weights, np.ones(M.nnz))

    @settings(max_examples=100, deadline=None)
    @given(small_datasets())
    def test_masks_equal_those_built_from_the_oracle_cells(self, case):
        ds, spec = case
        fold = _split_or_none(ds, spec)
        if fold is not None:
            _assert_fold_is_reference(fold, ds, spec)

    @settings(max_examples=50, deadline=None)
    @given(small_datasets())
    def test_same_seed_identical_fold(self, case):
        ds, spec = case
        f1, f2 = _split_or_none(ds, spec), _split_or_none(ds, spec)
        if f1 is None:
            assert f2 is None
            return
        assert np.array_equal(f1.X_train, f2.X_train)
        for name in ("M_train", "M_known", "M_heldout"):
            a, b = getattr(f1, name), getattr(f2, name)
            for field in ("row_idx", "col_idx", "weights", "values"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert f1.skipped_test_users == f2.skipped_test_users


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
        train = ObservationMask(3, 2, [0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1], np.ones(6),
                                np.full(6, 3.0))
        known = ObservationMask(3, 2, [0, 1, 2], [0, 1, 1], np.ones(3), np.full(3, 3.0))
        # (2, 1) is in both
        held = ObservationMask(3, 2, [1, 2], [0, 1], np.ones(2), np.full(2, 3.0))
        fold = Fold(M_train=train, M_known=known, M_heldout=held, num_items=3)
        with pytest.raises(ValueError, match="leaked"):
            evaluate_fold(fold, "bssmf", SolverConfig(rank=1, max_outer=1))

    def test_unknown_variant_rejected(self):
        rng = np.random.default_rng(10)
        ds, _, _ = synthetic_ratings(rng, num_users=10, num_items=8, per_user=6)
        fold = split(ds, SplitSpec(test_user_count=2, min_ratings_per_item=1, seed=0))
        with pytest.raises(ConfigError, match="unknown variant 'nfm'"):
            evaluate_fold(fold, "nfm", SolverConfig(rank=1, max_outer=1))

    def test_center_follows_config(self):
        rng = np.random.default_rng(11)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10,
                                     noise=0.3)
        fold = split(ds, SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=0))
        cfg = SolverConfig(rank=2, max_outer=20, max_inner_W=1, max_inner_H=1,
                           rel_tol=0.0, seed=0, record_trace=False, center=True)
        rep = evaluate_fold(fold, "bssmf", cfg)
        variant = ModelVariant.bssmf(BoundsVector.constant(fold.num_items, 1.0, 5.0))
        f, _ = solve_centered(fold.X_train, fold.M_train, variant, cfg)
        M = fold.M_train
        want = rmse(predict_cells(f.W, f.H, M.row_idx, M.col_idx, bounds=variant.bounds),
                    fold.X_train[M.row_idx, M.col_idx])
        assert rep.rmse_train == want
        for kind in ("nmf", "mf"):
            with pytest.raises(ConfigError, match="centering"):
                evaluate_fold(fold, kind, cfg)


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

    def test_empty_seeds_rejected(self):
        rng = np.random.default_rng(8)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        with pytest.raises(ValueError, match="at least one seed"):
            overfitting_sweep(ds, spec, [2], ["mf"], [], max_outer=10)

    def test_single_seed_zero_std(self):
        rng = np.random.default_rng(8)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        reports = overfitting_sweep(ds, spec, [2], ["mf"], [0], max_outer=10)
        assert reports[0].rmse_std == 0.0

    @pytest.mark.parametrize("kind", ["nmf", "mf"])
    def test_diverged_training_solve_raises(self, kind):
        # a finite rating whose square overflows must not become a row of inf
        rng = np.random.default_rng(8)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        ds.values[ds.items == 0] = 1e200  # item 0, which training users rate too
        spec = SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError,
                              match=f"{kind} training solve diverged at rank 2 with seed 1"):
            overfitting_sweep(ds, spec, [2], [kind], [1], max_outer=10)

    @pytest.mark.parametrize("kind", ["bssmf", "nmf", "mf"])
    def test_diverged_adaptation_raises(self, kind):
        # a known test rating whose square overflows leaves every test user's H
        # at its random start, so the held-out RMSE would be finite and meaningless
        rng = np.random.default_rng(8)
        ds, _, _ = synthetic_ratings(rng, num_users=20, num_items=15, per_user=10)
        fold = split(ds, SplitSpec(test_user_count=4, min_ratings_per_item=1, seed=5))
        fold.M_known.values[0] = 1e200
        config = SolverConfig(rank=2, max_outer=10, max_inner_W=1, max_inner_H=1, seed=1)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", UserWarning)  # bssmf: a rating outside [1, 5]
            with pytest.raises(FloatingPointError,
                               match=f"{kind} adaptation solve diverged at rank 2 with seed 1"):
                evaluate_fold(fold, kind, config)


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

    def test_single_block_matches_per_pass_loop(self):
        # W is frozen, so one block of max_outer * max_inner_H steps gives the
        # iterates of max_outer passes that carry the momentum state over
        from bssmf import matrixcore as mc
        from bssmf import solver as sv
        rng = np.random.default_rng(10)
        ds, _, _ = synthetic_ratings(rng, num_users=30, num_items=20, noise=0.1)
        fold = split(ds, SplitSpec(test_user_count=8, known_fraction=0.6,
                                   min_ratings_per_item=1, seed=3))
        sparse = fold.M_known
        assert sparse.nnz < sparse.rows * sparse.cols
        W = rng.uniform(1, 5, size=(sparse.rows, 3))
        full = rng.uniform(1, 5, size=(sparse.rows, sparse.cols))
        cfg = SolverConfig(rank=3, max_outer=7, max_inner_H=2, seed=4)
        for x, M in ((sparse.values, sparse), (full, ObservationMask.full(*full.shape))):
            for kind in ("bssmf", "nmf", "mf"):
                var = ModelVariant.from_kind(kind, BoundsVector.constant(M.rows, 1, 5))
                H = var.project_H(np.random.default_rng(cfg.seed).uniform(size=(3, M.cols)))
                H_old = H
                floor, _, _ = sv._check_observed(x, M)
                state = sv._BlockState(max(mc.spectral_norm(W.T @ W), floor))
                for _ in range(cfg.max_outer):
                    H, H_old = sv.update_H_block(mc.Workspace(x, M), W, H, var, state, H_old,
                                                 cfg.max_inner_H, cfg.extrapolate)
                assert np.array_equal(solve_h_given_w(x, M, W, var, cfg), H), (kind, M.is_full)
