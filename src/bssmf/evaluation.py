"""Matrix-completion evaluation: user splits, held-out RMSE, rank sweeps.

The data matrix is item-by-user. Training learns (W, H) on the non-test
users with :func:`solver.solve`; at test time W is frozen and only the H
block is fitted on each test user's known ratings with :func:`solver.solve_h`,
the same loop with the W block skipped, then RMSE is computed on the held-out
ones. Either fit stopping "diverged" raises FloatingPointError. Each mask of
a :class:`Fold` holds its ratings as ``values``; no m x n matrix is built.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

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
    """Split parameters. Of each test user's k kept ratings,
    ceil(known_fraction * k) are known and the rest held out, so a test user
    is usable only when that ceiling is below k. The others (k of 0 or 1, or
    small enough that the ceiling is k: at most 4 at 0.8) are skipped and
    counted in ``Fold.skipped_test_users``."""

    test_user_count: int
    known_fraction: float = 0.8
    min_ratings_per_item: int = 5
    seed: int = 0


@dataclass
class Fold:
    """Item-by-user masks for one train/test split, with the training users'
    ratings and the test users' known and held-out ones as their ``values``."""

    M_train: ObservationMask
    M_known: ObservationMask
    M_heldout: ObservationMask
    num_items: int
    skipped_test_users: int = 0

    @property
    def X_train(self):
        """The training ratings as a dense matrix, built on each read; only the
        benchmark's scoring reads it, and it goes once that reads M_train.values."""
        M = self.M_train
        X = np.zeros((M.rows, M.cols))
        X[M.row_idx, M.col_idx] = M.values
        return X


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
    Rows are the kept items and columns the users, each in increasing id order.
    Test users with no rating to hold out are skipped, as :class:`SplitSpec`
    says, with a warning; if none is left, ValueError, as for a
    test_user_count below 1 or not below num_users, or a seed that is not a
    non-negative integer.

    One argsort of the unique key user * n_items + row orders the kept
    ratings, so each mask gets its cells already in canonical column-major
    order; a user -> column table gives the columns. Each usable test user's
    known ratings are the first ceil(known_fraction * k) of a permutation of
    its k ratings in file order, drawn in user id order.
    """
    if dataset.users.size == 0:
        raise ValueError("empty dataset")
    if not (0 < spec.known_fraction < 1):
        raise ValueError("known_fraction must be in (0, 1)")
    if spec.test_user_count < 1:
        raise ValueError(f"test_user_count must be at least 1, got {spec.test_user_count}")
    if spec.test_user_count >= dataset.num_users:
        raise ValueError("test_user_count must be < num_users")
    if not (isinstance(spec.seed, (int, np.integer)) and spec.seed >= 0):
        raise ValueError(f"split seed must be a non-negative integer, got {spec.seed!r}")
    rng = np.random.default_rng(spec.seed)

    item_counts = np.bincount(dataset.items, minlength=dataset.num_items)
    keep_item = item_counts >= spec.min_ratings_per_item
    n_items = int(keep_item.sum())
    if n_items == 0:
        raise ValueError("no items survive the rating-count filter")
    is_test = np.zeros(dataset.num_users, dtype=bool)
    is_test[rng.choice(dataset.num_users, size=spec.test_user_count, replace=False)] = True

    # kept ratings by (user, row), a unique key (a dataset has no duplicate ratings), so
    # the order is the same for any sort; `kept` holds file positions, for the permutations
    row_of = np.cumsum(keep_item) - 1
    kept = np.flatnonzero(keep_item[dataset.items])
    kept = kept[np.argsort(dataset.users[kept] * n_items + row_of[dataset.items[kept]])]
    users, rows, values = dataset.users[kept], row_of[dataset.items[kept]], dataset.values[kept]
    per_user = np.bincount(users, minlength=dataset.num_users)

    train_users = np.flatnonzero((per_user > 0) & ~is_test)
    n_known = np.ceil(spec.known_fraction * per_user).astype(np.intp)
    usable = is_test & (n_known < per_user)  # at least one rating left to hold out
    usable_test = np.flatnonzero(usable)
    if usable_test.size == 0:
        raise ValueError(f"no test user keeps a rating to hold out: each of the "
                         f"{spec.test_user_count} has k kept ratings with "
                         f"ceil(known_fraction * k) = k")
    skipped = spec.test_user_count - usable_test.size
    if skipped:
        warnings.warn(f"{skipped} test users have no rating left to hold out after "
                      f"filtering (ceil(known_fraction * k) = k); excluded")
    in_train = ~is_test[users]
    known = np.zeros(users.size, dtype=bool)
    starts = np.cumsum(per_user) - per_user
    for u in usable_test:
        s, k = starts[u], per_user[u]
        in_file_order = s + np.argsort(kept[s:s + k])
        known[in_file_order[rng.permutation(k)[: n_known[u]]]] = True
    held = usable[users] & ~known
    col_of = np.zeros(dataset.num_users, dtype=np.intp)  # train and test users are disjoint
    col_of[train_users] = np.arange(train_users.size)
    col_of[usable_test] = np.arange(usable_test.size)

    def mask(sel, side_users):
        cols = col_of[users[sel]]
        return ObservationMask(n_items, side_users.size, rows[sel], cols, np.ones(cols.size),
                               values[sel])

    return Fold(
        M_train=mask(in_train, train_users),
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
    """Fit only H against a frozen W (test-time adaptation) by :func:`solver.solve_h`,
    which takes X and raises as :func:`solver.solve` does; FloatingPointError
    when the fit stops "diverged"."""
    H, report = sv.solve_h(X, M, W, variant, config)
    report.raise_if_diverged(f"at rank {config.rank} with seed {config.seed}",
                             f"{variant.kind} adaptation solve")
    return H


def evaluate_fold(fold, variant_kind, config, value_range=(1.0, 5.0)):
    """Train on the training users, adapt H on test users' known ratings,
    report held-out RMSE.

    Training runs :func:`solver.solve` with config as given, so config.center
    takes the H step constant at W - c, c the mean training rating, and
    centering a variant other than bssmf raises ConfigError. Adaptation is
    uncentered. Either fit stopping "diverged" raises FloatingPointError.
    """
    known, held = (M.row_idx * M.cols + M.col_idx for M in (fold.M_known, fold.M_heldout))
    if np.intersect1d(known, held).size:
        raise ValueError("held-out cells leaked into the adaptation mask")
    variant = sv.ModelVariant.from_kind(
        variant_kind, BoundsVector.constant(fold.num_items, *value_range))
    factors, report = sv.solve(fold.M_train.values, fold.M_train, variant, config)
    report.raise_if_diverged(f"at rank {config.rank} with seed {config.seed}",
                             f"{variant_kind} training solve")
    W = factors.W
    H_test = solve_h_given_w(fold.M_known.values, fold.M_known, W, variant, config)
    bounds = variant.bounds if variant_kind == sv.BSSMF else None

    def rmse_at(M, H):  # of the predictions WH against the ratings at M's cells
        return rmse(sv.predict_cells(W, H, M.row_idx, M.col_idx, bounds=bounds), M.values)

    return EvalReport(
        rank=config.rank,
        variant=variant_kind,
        rmse_test=rmse_at(fold.M_heldout, H_test),
        rmse_train=rmse_at(fold.M_train, factors.H),
        seeds_used=1,
        rmse_std=0.0,
        wall_time=report.wall_time,
    )


def overfitting_sweep(dataset, spec, ranks, variants, seeds, max_outer=200,
                      center=False, dataset_name=""):
    """Cross product of ranks x variants, mean +- std over seeds.

    Solver budget follows the recommender protocol: max_outer outer passes
    with single inner iterations per block. An empty seed list raises ValueError.
    """
    if len(seeds) == 0:
        raise ValueError("a sweep needs at least one seed, got none")
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
