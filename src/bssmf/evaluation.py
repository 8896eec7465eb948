"""Matrix-completion evaluation: user splits, held-out RMSE, rank sweeps.

The data matrix is item-by-user. Training learns (W, H) on the non-test
users; at test time W is frozen and only the H block is fitted on each test
user's known ratings, then RMSE is computed on the held-out ones.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from . import solver as sv
from .matrixcore import ObservationMask
from .projections import BoundsVector


@dataclass
class RatingsDataset:
    num_users: int
    num_items: int
    ratings: list  # (user, item, value, timestamp or None)
    value_range: tuple = (1.0, 5.0)

    def __post_init__(self):
        seen = set()
        for u, i, v, _ in self.ratings:
            if (u, i) in seen:
                raise ValueError(f"duplicate rating for user {u}, item {i}")
            seen.add((u, i))


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
    at random, and cut each test user's ratings 80/20 into known/held-out."""
    if not dataset.ratings:
        raise ValueError("empty dataset")
    if not (0 < spec.known_fraction < 1):
        raise ValueError("known_fraction must be in (0, 1)")
    if spec.test_user_count >= dataset.num_users:
        raise ValueError("test_user_count must be < num_users")
    rng = np.random.default_rng(spec.seed)

    item_counts = np.zeros(dataset.num_items, dtype=int)
    for _, i, _, _ in dataset.ratings:
        item_counts[i] += 1
    keep_item = item_counts >= spec.min_ratings_per_item
    item_map = -np.ones(dataset.num_items, dtype=int)
    item_map[keep_item] = np.arange(int(keep_item.sum()))
    n_items = int(keep_item.sum())
    if n_items == 0:
        raise ValueError("no items survive the rating-count filter")

    test_users = set(
        int(u) for u in rng.choice(dataset.num_users, size=spec.test_user_count, replace=False)
    )
    by_user = {}
    for u, i, v, _ in dataset.ratings:
        if keep_item[i]:
            by_user.setdefault(u, []).append((int(item_map[i]), float(v)))

    train_users = sorted(u for u in by_user if u not in test_users)
    train_col = {u: k for k, u in enumerate(train_users)}
    usable_test = sorted(u for u in test_users if len(by_user.get(u, [])) >= 2)
    skipped = len([u for u in test_users if u not in usable_test])
    if skipped:
        warnings.warn(f"{skipped} test users had < 2 ratings after filtering; excluded")
    test_col = {u: k for k, u in enumerate(usable_test)}

    X_train = np.zeros((n_items, len(train_users)))
    tr_entries = []
    for u in train_users:
        for i, v in by_user[u]:
            X_train[i, train_col[u]] = v
            tr_entries.append((i, train_col[u], 1.0))

    X_test = np.zeros((n_items, len(usable_test)))
    known_entries, held_entries = [], []
    for u in usable_test:
        items = by_user[u]
        order = rng.permutation(len(items))
        n_known = int(np.ceil(spec.known_fraction * len(items)))
        for pos, idx in enumerate(order):
            i, v = items[idx]
            X_test[i, test_col[u]] = v
            dest = known_entries if pos < n_known else held_entries
            dest.append((i, test_col[u], 1.0))

    return Fold(
        X_train=X_train,
        M_train=ObservationMask.from_entries(n_items, len(train_users), tr_entries),
        X_test=X_test,
        M_known=ObservationMask.from_entries(n_items, len(usable_test), known_entries),
        M_heldout=ObservationMask.from_entries(n_items, len(usable_test), held_entries),
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
    """Fit only the H block against a frozen W (test-time adaptation)."""
    r = W.shape[1]
    rng = np.random.default_rng(config.seed)
    H = variant.project_H(rng.uniform(size=(r, X.shape[1])))
    H_old = H
    floor = sv._lipschitz_floor(X, M)
    state = sv._BlockState(max(mc.spectral_norm(W.T @ W), floor))
    for _ in range(config.max_outer):
        H, H_old = sv.update_H_block(
            X, W, H, M, variant, state, H_old, config.max_inner_H, config.extrapolate
        )
    return H


def _variant_for(kind, fold, value_range):
    m = fold.num_items
    if kind == sv.BSSMF:
        return sv.ModelVariant.bssmf(BoundsVector.constant(m, *value_range))
    if kind == sv.NMF:
        return sv.ModelVariant.nmf(m)
    return sv.ModelVariant.mf(m)


def evaluate_fold(fold, variant_kind, config, value_range=(1.0, 5.0), center=None):
    """Train on the training users, adapt H on test users' known ratings,
    report held-out RMSE."""
    cols = fold.M_known.cols
    known = fold.M_known.row_idx * cols + fold.M_known.col_idx
    held = fold.M_heldout.row_idx * cols + fold.M_heldout.col_idx
    if np.intersect1d(known, held).size:
        raise ValueError("held-out cells leaked into the adaptation mask")
    variant = _variant_for(variant_kind, fold, value_range)
    use_center = config.center if center is None else center
    if use_center and variant_kind == sv.BSSMF:
        factors, report = sv.solve_centered(fold.X_train, fold.M_train, variant, config)
    else:
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
                    rel_tol=0.0, extrapolate=True, seed=seed, record_trace=False,
                )
                rep = evaluate_fold(fold, kind, config,
                                    value_range=dataset.value_range, center=center)
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
