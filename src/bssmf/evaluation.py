"""Matrix-completion evaluation: user splits, held-out RMSE, rank sweeps.

The data matrix is item-by-user. Training learns (W, H) on the non-test
users; at test time W is frozen and only the H block is fitted on each test
user's known ratings, then RMSE is computed on the held-out ones.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from . import solver as sv
from .matrixcore import ObservationMask
from .projections import BoundsVector


@dataclass
class RatingsDataset:
    """Rating k is user ``users[k]`` giving item ``items[k]`` the value
    ``values[k]``; ids are dense and 0-based. ``user_map``/``item_map`` take a
    file's raw id strings to those ids (first-seen order); empty for in-memory data."""

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    value_range: tuple = (1.0, 5.0)
    user_map: dict = field(default_factory=dict)
    item_map: dict = field(default_factory=dict)

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.intp)
        self.items = np.asarray(self.items, dtype=np.intp)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (self.users.ndim == 1
                and self.users.shape == self.items.shape == self.values.shape):
            raise ValueError("users, items and values must be 1-D arrays of equal length")
        if np.any(self.users < 0) or np.any(self.users >= self.num_users):
            raise ValueError(f"user id outside [0, {self.num_users})")
        if np.any(self.items < 0) or np.any(self.items >= self.num_items):
            raise ValueError(f"item id outside [0, {self.num_items})")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            k = bad[0]
            u, i = self._raw_ids(self.users[k], self.items[k])
            raise ValueError(f"non-finite rating {self.values[k]} for user {u}, item {i}")
        key = np.sort(self.users * self.num_items + self.items)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            u, i = self._raw_ids(*divmod(int(key[dup[0]]), self.num_items))
            raise ValueError(f"duplicate rating for user {u}, item {i}")

    def _raw_ids(self, u, i):
        """Dense ids (u, i) as raw ids where the maps have them."""
        u = next((raw for raw, d in self.user_map.items() if d == u), int(u))
        i = next((raw for raw, d in self.item_map.items() if d == i), int(i))
        return u, i


@dataclass
class SplitSpec:
    test_user_count: int
    known_fraction: float = 0.8
    min_ratings_per_item: int = 5
    seed: int = 0


@dataclass
class Fold:
    """Item-by-user matrices and masks for one train/test split."""

    X_train: np.ndarray
    M_train: ObservationMask
    X_test: np.ndarray
    M_known: ObservationMask
    M_heldout: ObservationMask
    num_items: int
    skipped_test_users: int = 0


@dataclass
class EvalReport:
    rank: int
    variant: str
    rmse_test: float
    rmse_train: float
    seeds_used: int
    rmse_std: float
    dataset: str = ""
    wall_time: float = 0.0


def split(dataset, spec):
    """Seeded split: drop items rated < min_ratings_per_item, pick test users
    at random, and cut each test user's ratings 80/20 into known/held-out.
    Rows are the kept items and columns the users, each in increasing id order."""
    if dataset.users.size == 0:
        raise ValueError("empty dataset")
    if not (0 < spec.known_fraction < 1):
        raise ValueError("known_fraction must be in (0, 1)")
    if spec.test_user_count >= dataset.num_users:
        raise ValueError("test_user_count must be < num_users")
    rng = np.random.default_rng(spec.seed)

    item_counts = np.bincount(dataset.items, minlength=dataset.num_items)
    keep_item = item_counts >= spec.min_ratings_per_item
    n_items = int(keep_item.sum())
    if n_items == 0:
        raise ValueError("no items survive the rating-count filter")
    is_test = np.zeros(dataset.num_users, dtype=bool)
    is_test[rng.choice(dataset.num_users, size=spec.test_user_count, replace=False)] = True

    # kept ratings grouped by user, stably: the permutations below index dataset order
    kept = np.flatnonzero(keep_item[dataset.items])
    kept = kept[np.argsort(dataset.users[kept], kind="stable")]
    users, values = dataset.users[kept], dataset.values[kept]
    rows = (np.cumsum(keep_item) - 1)[dataset.items[kept]]
    per_user = np.bincount(users, minlength=dataset.num_users)

    train_users = np.flatnonzero((per_user > 0) & ~is_test)
    usable_test = np.flatnonzero((per_user >= 2) & is_test)
    skipped = spec.test_user_count - usable_test.size
    if skipped:
        warnings.warn(f"{skipped} test users had < 2 ratings after filtering; excluded")
    in_train = ~is_test[users]
    known = np.zeros(users.size, dtype=bool)
    starts = np.cumsum(per_user) - per_user
    for u in usable_test:
        k = int(per_user[u])
        known[starts[u] + rng.permutation(k)[: int(np.ceil(spec.known_fraction * k))]] = True
    held = is_test[users] & (per_user[users] >= 2) & ~known

    def matrix(sel, side_users):
        X = np.zeros((n_items, side_users.size))
        X[rows[sel], np.searchsorted(side_users, users[sel])] = values[sel]
        return X

    def mask(sel, side_users):
        cols = np.searchsorted(side_users, users[sel])
        return ObservationMask(n_items, side_users.size, rows[sel], cols, np.ones(cols.size))

    return Fold(
        X_train=matrix(in_train, train_users),
        M_train=mask(in_train, train_users),
        X_test=matrix(known | held, usable_test),
        M_known=mask(known, usable_test),
        M_heldout=mask(held, usable_test),
        num_items=n_items,
        skipped_test_users=skipped,
    )


def rmse(predictions, truths):
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.size == 0 or predictions.shape != truths.shape:
        raise ValueError("rmse needs equal-length nonempty inputs")
    return float(np.sqrt(np.mean((predictions - truths) ** 2)))


def solve_h_given_w(X, M, W, variant, config):
    """Fit only the H block against a frozen W (test-time adaptation).

    W never changes, so the max_outer passes of max_inner_H steps are one
    block of max_outer * max_inner_H steps with one gradient build. Like
    :func:`solver.solve`, it raises ValueError on a non-finite observed entry.
    """
    r = W.shape[1]
    rng = np.random.default_rng(config.seed)
    H = variant.project_H(rng.uniform(size=(r, X.shape[1])))
    x = M.observed(X)
    floor = sv._check_observed(x, M)
    state = sv._BlockState(max(mc.spectral_norm(W.T @ W), floor))
    H, _ = sv.update_H_block(x, W, H, M, variant, state, H,
                             config.max_outer * config.max_inner_H, config.extrapolate)
    return H


def evaluate_fold(fold, variant_kind, config, value_range=(1.0, 5.0)):
    """Train on the training users, adapt H on test users' known ratings,
    report held-out RMSE.

    Training runs :func:`solver.solve` with config as given, so config.center
    takes the H step constant at W - c, c the mean training rating, and
    centering a variant other than bssmf raises ConfigError. Test-time
    adaptation is never centered.
    """
    cols = fold.M_known.cols
    known = fold.M_known.row_idx * cols + fold.M_known.col_idx
    held = fold.M_heldout.row_idx * cols + fold.M_heldout.col_idx
    if np.intersect1d(known, held).size:
        raise ValueError("held-out cells leaked into the adaptation mask")
    variant = sv.ModelVariant.from_kind(
        variant_kind, BoundsVector.constant(fold.num_items, *value_range))
    factors, report = sv.solve(fold.X_train, fold.M_train, variant, config)
    W = factors.W

    H_test = solve_h_given_w(fold.X_test, fold.M_known, W, variant, config)

    bounds = variant.bounds if variant_kind == sv.BSSMF else None
    hr, hc = fold.M_heldout.row_idx, fold.M_heldout.col_idx
    preds = sv.predict_cells(W, H_test, hr, hc, bounds=bounds)
    rmse_test = rmse(preds, fold.X_test[hr, hc])

    tr, tc = fold.M_train.row_idx, fold.M_train.col_idx
    train_preds = sv.predict_cells(factors.W, factors.H, tr, tc, bounds=bounds)
    rmse_train = rmse(train_preds, fold.X_train[tr, tc])

    return EvalReport(
        rank=config.rank,
        variant=variant_kind,
        rmse_test=rmse_test,
        rmse_train=rmse_train,
        seeds_used=1,
        rmse_std=0.0,
        wall_time=report.wall_time,
    )


def overfitting_sweep(dataset, spec, ranks, variants, seeds, max_outer=200,
                      center=False, dataset_name=""):
    """Cross product of ranks x variants, mean +- std over seeds.

    Solver budget follows the recommender protocol: max_outer outer passes
    with single inner iterations per block.
    """
    fold = split(dataset, spec)
    reports = []
    for kind in variants:
        for r in ranks:
            tests, trains, wall = [], [], 0.0
            for seed in seeds:
                config = sv.SolverConfig(
                    rank=r, max_outer=max_outer, max_inner_W=1, max_inner_H=1,
                    rel_tol=0.0, extrapolate=True, center=center, seed=seed,
                    record_trace=False,
                )
                rep = evaluate_fold(fold, kind, config, value_range=dataset.value_range)
                tests.append(rep.rmse_test)
                trains.append(rep.rmse_train)
                wall += rep.wall_time
            reports.append(EvalReport(
                rank=r,
                variant=kind,
                rmse_test=float(np.mean(tests)),
                rmse_train=float(np.mean(trains)),
                seeds_used=len(seeds),
                rmse_std=float(np.std(tests)) if len(seeds) > 1 else 0.0,
                dataset=dataset_name,
                wall_time=wall,
            ))
    return reports
