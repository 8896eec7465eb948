"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE nn <name>: PASS|FAIL|SKIP`` line on the
real terminal (bypassing pytest capture) so the suite's verdict can be read
from the log at a glance.  Tests 02 and 03 need the MovieLens datasets, which
are not redistributable; they look under ``$BSSMF_DATA_DIR`` (default
``./data``) and skip when absent.
"""

import os
import sys
import time

import numpy as np
import pytest

from bssmf import (
    BoundsVector,
    ModelVariant,
    ObservationMask,
    SolverConfig,
    objective,
    project_simplex_columns,
    solve,
    solve_centered,
)
from bssmf.identifiability import (
    SyntheticSpec,
    generate_synthetic,
    match_and_score,
    ssc_necessary_check,
    ssmf_gauge_transform,
    stack_for_theorem3,
)
from bssmf.matrixcore import gradient_H, gradient_W
from bssmf.preprocessing import rescale_rows_to_unit, unrescale_rows
from bssmf.projections import simplex_projection_oracle
from bssmf.evaluation import SplitSpec, evaluate_fold, split
from bssmf.io_formats import read_movielens
from bssmf import solver as solver_module
from bssmf.solver import predict_cells

from conftest import EXAMPLE_H, EXAMPLE_W, EXAMPLE_X


def _verdict(number, name, ok):
    line = "ACCEPTANCE %02d %s: %s" % (number, name, "PASS" if ok else "FAIL")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _skip(number, name, reason):
    print(
        "ACCEPTANCE %02d %s: SKIP (%s)" % (number, name, reason),
        file=sys.__stdout__,
        flush=True,
    )
    pytest.skip(reason)


def _data_path(*parts):
    root = os.environ.get("BSSMF_DATA_DIR", "data")
    return os.path.join(root, *parts)


def _mask_from_bool(keep):
    rows, cols = np.nonzero(keep)
    return ObservationMask(
        keep.shape[0], keep.shape[1], rows, cols, np.ones(rows.size)
    )


# ---------------------------------------------------------------------------
# 01: recovery of the known 6x6 instance with a unique factorization


def test_01_unique_instance_recovery():
    # The classic 6x6 example: X/4 admits a unique factorization with
    # bounds [0, 3] and column-stochastic H (the unscaled H has column
    # sums 4, so the normalized instance is the feasible one).
    X = EXAMPLE_X / 4.0
    bounds = BoundsVector.constant(6, 0.0, 3.0)
    variant = ModelVariant.bssmf(bounds)
    mask = ObservationMask.full(6, 6)
    norm_x = np.linalg.norm(X)

    t0 = time.time()
    best_rel = np.inf
    best_W = None
    for seed in range(50):
        config = SolverConfig(
            rank=3, max_outer=400, max_inner_W=10, max_inner_H=10,
            rel_tol=1e-12, seed=seed, record_trace=False,
        )
        factors, _ = solve(X, mask, variant, config)
        rel = np.linalg.norm(X - factors.W @ factors.H) / norm_x
        if rel < best_rel:
            best_rel = rel
            best_W = factors.W
    elapsed = time.time() - t0

    report = match_and_score(EXAMPLE_W, best_W)
    ok = best_rel < 1e-6 and report.mean_mrsa < 0.5 and elapsed < 10.0
    _verdict(1, "unique-6x6-recovery", ok)


# ---------------------------------------------------------------------------
# 02/03: MovieLens reproductions (dataset-gated)


def _movielens_rmse(ds, rank, kind, seeds, test_users=50):
    vals = []
    for seed in seeds:
        spec = SplitSpec(test_user_count=test_users, known_fraction=0.8,
                         min_ratings_per_item=5, seed=seed)
        fold = split(ds, spec)
        config = SolverConfig(rank=rank, max_outer=200, max_inner_W=1,
                              max_inner_H=1, rel_tol=0.0, seed=seed,
                              record_trace=False)
        report = evaluate_fold(fold, kind, config, value_range=(1.0, 5.0))
        vals.append(report.rmse_test)
    return float(np.mean(vals))


def test_02_movielens_100k():
    path = _data_path("ml-100k", "u.data")
    if not os.path.exists(path):
        _skip(2, "ml-100k-rmse", "dataset not present at %s" % path)
    ds = read_movielens(path, flavor="tsv")
    r5 = _movielens_rmse(ds, 5, "bssmf", [0, 1, 2])
    r100 = {k: _movielens_rmse(ds, 100, k, [0])
            for k in ("bssmf", "nmf", "mf")}
    ok = (
        abs(r5 - 0.89) <= 0.05
        and r100["bssmf"] < r100["nmf"] < r100["mf"]
        and r100["bssmf"] - r100["nmf"] <= -0.03
    )
    _verdict(2, "ml-100k-rmse", ok)


def test_03_movielens_1m():
    path = _data_path("ml-1m", "ratings.dat")
    if not os.path.exists(path):
        _skip(3, "ml-1m-rmse", "dataset not present at %s" % path)
    ds = read_movielens(path, flavor="dat")
    r100 = {k: _movielens_rmse(ds, 100, k, [0])
            for k in ("bssmf", "nmf", "mf")}
    r50 = {k: _movielens_rmse(ds, 50, k, [0])
           for k in ("bssmf", "nmf", "mf")}
    ok = (
        abs(r100["bssmf"] - 0.89) <= 0.04
        and r100["bssmf"] < r100["nmf"] < r100["mf"]
        and r50["bssmf"] < r50["nmf"] < r50["mf"]
    )
    _verdict(3, "ml-1m-rmse", ok)


# ---------------------------------------------------------------------------
# 04/05: descent and feasibility on a shared batch of random instances


def _random_instances():
    """20 seeded instances, half fully observed, half 50% masked."""
    rng = np.random.default_rng(42)
    instances = []
    for i in range(20):
        m = int(rng.integers(5, 101))
        n = int(rng.integers(5, 81))
        r = int(rng.integers(2, min(11, m, n)))
        lo = rng.uniform(-1.0, 0.5, size=m)
        hi = lo + rng.uniform(0.5, 3.0, size=m)
        W = lo[:, None] + rng.random((m, r)) * (hi - lo)[:, None]
        H = project_simplex_columns(rng.random((r, n)))
        X = W @ H + 0.05 * rng.standard_normal((m, n))
        X = np.clip(X, lo[:, None], hi[:, None])
        if i % 2 == 0:
            mask = ObservationMask.full(m, n)
        else:
            keep = rng.random((m, n)) < 0.5
            keep[:, ~keep.any(axis=0)] = True  # no empty columns or rows
            keep[~keep.any(axis=1), :] = True
            mask = _mask_from_bool(keep)
        bounds = BoundsVector(lower=lo, upper=hi)
        instances.append((X, mask, bounds, r, i))
    return instances


def test_04_bcd_descent():
    ok = True
    for X, mask, bounds, r, seed in _random_instances():
        variant = ModelVariant.bssmf(bounds)
        config = SolverConfig(rank=r, max_outer=60, max_inner_W=5,
                              max_inner_H=5, rel_tol=0.0, extrapolate=False,
                              seed=seed)
        _, report = solve(X, mask, variant, config)
        trace = np.asarray(report.objective_trace)
        slack = 1e-12 * (1.0 + trace[:-1])
        if np.any(trace[1:] > trace[:-1] + slack):
            ok = False
    _verdict(4, "bcd-descent", ok)


def test_05_feasibility_every_iteration(monkeypatch):
    failures = []
    current = {}

    def check_W(W):
        bounds = current["bounds"]
        if np.any(W < bounds.lower[:, None]) or np.any(W > bounds.upper[:, None]):
            failures.append((current["seed"], "W bounds"))

    def check_H(H):
        if np.any(H < 0):
            failures.append((current["seed"], "H negative"))
        if np.max(np.abs(H.sum(axis=0) - 1.0)) > 1e-10:
            failures.append((current["seed"], "H column sums"))

    # solve looks the block updates up by global name, so wrapping them
    # checks the W and H the solver keeps after every outer pass; the count
    # makes sure solve went through them at all
    update_W, update_H = solver_module.update_W_block, solver_module.update_H_block

    def checked_update_W(*args):
        W, W_old = update_W(*args)
        current["updates"] += 1
        check_W(W)
        return W, W_old

    def checked_update_H(*args):
        H, H_old = update_H(*args)
        current["updates"] += 1
        check_H(H)
        return H, H_old

    monkeypatch.setattr(solver_module, "update_W_block", checked_update_W)
    monkeypatch.setattr(solver_module, "update_H_block", checked_update_H)

    for X, mask, bounds, r, seed in _random_instances():
        current.update(bounds=bounds, seed=seed, updates=0)
        variant = ModelVariant.bssmf(bounds)
        config = SolverConfig(rank=r, max_outer=40, max_inner_W=3,
                              max_inner_H=3, rel_tol=0.0, seed=seed,
                              record_trace=False)
        factors, _ = solve(X, mask, variant, config)
        if current["updates"] != 2 * config.max_outer:
            failures.append((seed, "block updates bypassed"))
        check_W(factors.W)
        check_H(factors.H)
        if mask.is_full:
            rows, cols = np.indices(X.shape)
            rows, cols = rows.ravel(), cols.ravel()
        else:
            rows, cols = mask.row_idx, mask.col_idx
        preds = predict_cells(factors.W, factors.H, rows, cols, bounds)
        if np.any(preds < bounds.lower[rows]) or np.any(preds > bounds.upper[rows]):
            failures.append((seed, "predictions out of bounds"))

    _verdict(5, "feasibility-every-iteration", not failures)


# ---------------------------------------------------------------------------
# 06: simplex projection vs support-enumeration oracle


def test_06_simplex_projection_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        r = int(rng.integers(2, 9))
        v = rng.uniform(-5.0, 5.0, size=r)
        fast = project_simplex_columns(v.reshape(-1, 1)).ravel()
        slow = simplex_projection_oracle(v)
        if np.max(np.abs(fast - slow)) > 1e-10:
            ok = False
    # idempotence and non-expansiveness on 1000 random pairs
    for _ in range(1000):
        r = int(rng.integers(2, 9))
        u = rng.uniform(-5.0, 5.0, size=(r, 1))
        v = rng.uniform(-5.0, 5.0, size=(r, 1))
        pu = project_simplex_columns(u)
        pv = project_simplex_columns(v)
        if np.max(np.abs(project_simplex_columns(pu) - pu)) > 1e-12:
            ok = False
        if np.linalg.norm(pu - pv) > np.linalg.norm(u - v) + 1e-12:
            ok = False
    _verdict(6, "simplex-projection-oracle", ok)


# ---------------------------------------------------------------------------
# 07: analytic gradients vs central finite differences


def test_07_gradient_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    ok = True
    for trial in range(10):
        m = int(rng.integers(4, 9))
        n = int(rng.integers(4, 9))
        r = int(rng.integers(2, 5))
        X = rng.random((m, n))
        keep = rng.random((m, n)) < 0.7
        keep[0, :] = True
        rows, cols = np.nonzero(keep)
        if trial % 2:
            weights = rng.uniform(0.2, 1.0, size=rows.size)
        else:
            weights = np.ones(rows.size)
        mask = ObservationMask(m, n, rows, cols, weights)
        W = rng.random((m, r))
        H = rng.random((r, n))

        gW = gradient_W(X, W, H, mask)
        gH = gradient_H(X, W, H, mask)

        for grad, A, which in ((gW, W, "W"), (gH, H, "H")):
            fd = np.zeros_like(A)
            for idx in np.ndindex(A.shape):
                Ap = A.copy(); Ap[idx] += h
                Am = A.copy(); Am[idx] -= h
                if which == "W":
                    fp = objective(X, Ap, H, mask)
                    fm = objective(X, Am, H, mask)
                else:
                    fp = objective(X, W, Ap, mask)
                    fm = objective(X, W, Am, mask)
                fd[idx] = (fp - fm) / (2 * h)
            if np.max(np.abs(grad - fd)) > 1e-5:
                ok = False
    _verdict(7, "gradient-finite-differences", ok)


# ---------------------------------------------------------------------------
# 08: centering changes coordinates, not the objective


def test_08_centering_equivalence():
    rng = np.random.default_rng(23)
    m, n, r = 12, 15, 4
    lo = rng.uniform(0.0, 1.0, size=m)
    hi = lo + rng.uniform(1.0, 3.0, size=m)
    X = lo[:, None] + rng.random((m, n)) * (hi - lo)[:, None]
    keep = rng.random((m, n)) < 0.8
    keep[:, 0] = True
    mask = _mask_from_bool(keep)
    c = float(np.mean(X[mask.row_idx, mask.col_idx]))
    Xc = X - c

    ok = True
    for _ in range(100):
        W = lo[:, None] + rng.random((m, r)) * (hi - lo)[:, None]
        H = project_simplex_columns(rng.random((r, n)))
        f = objective(X, W, H, mask)
        fc = objective(Xc, W - c, H, mask)
        if abs(f - fc) > 1e-9 * (1.0 + f):
            ok = False

    # c = 0: the centered driver must be bit-identical to the plain solve
    X0 = np.round(rng.random((6, 8)) * 4.0)  # integer-valued data
    X0[0, 0] -= X0.sum()  # force an exactly-zero observed mean
    bounds0 = BoundsVector.constant(6, float(X0.min()), float(X0.max()))
    mask0 = ObservationMask.full(6, 8)
    variant0 = ModelVariant.bssmf(bounds0)
    config0 = SolverConfig(rank=3, max_outer=30, max_inner_W=3,
                           max_inner_H=3, rel_tol=0.0, seed=5)
    plain, rep_p = solve(X0, mask0, variant0, config0)
    centered, rep_c = solve_centered(X0, mask0, variant0, config0)
    if not (np.array_equal(plain.W, centered.W)
            and np.array_equal(plain.H, centered.H)
            and rep_p.objective_trace == rep_c.objective_trace):
        ok = False

    _verdict(8, "centering-equivalence", ok)


# ---------------------------------------------------------------------------
# 09: the simplex-structured gauge ambiguity is an exact symmetry


def test_09_gauge_witness():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(20):
        m = int(rng.integers(5, 15))
        n = int(rng.integers(5, 15))
        r = int(rng.integers(2, 6))
        W = rng.standard_normal((m, r))
        H = project_simplex_columns(rng.random((r, n)))
        product = W @ H
        scale = np.linalg.norm(product)
        for alpha in (0.1, 1.0, 10.0):
            Wa, Ha = ssmf_gauge_transform(W, H, alpha)
            if np.linalg.norm(product - Wa @ Ha) > 1e-10 * scale:
                ok = False
            if np.max(np.abs(Ha.sum(axis=0) - 1.0)) > 1e-10:
                ok = False
    _verdict(9, "gauge-witness", ok)


# ---------------------------------------------------------------------------
# 10: interval rescaling round trip


def test_10_interval_rescaling_round_trip():
    rng = np.random.default_rng(37)
    ok = True
    for _ in range(20):
        m = int(rng.integers(4, 20))
        n = int(rng.integers(4, 20))
        r = int(rng.integers(2, 6))
        lo = rng.uniform(-4.0, 2.0, size=m)
        hi = lo + rng.uniform(0.5, 5.0, size=m)
        bounds = BoundsVector(lower=lo, upper=hi)
        W = lo[:, None] + rng.random((m, r)) * (hi - lo)[:, None]
        H = project_simplex_columns(rng.random((r, n)))
        X = W @ H

        Xu, record = rescale_rows_to_unit(X, bounds)
        # the factorization carries over with W mapped the same way
        Wu = (W - lo[:, None]) / (hi - lo)[:, None]
        if np.any(Wu < -1e-15) or np.any(Wu > 1.0 + 1e-15):
            ok = False
        if np.max(np.abs(Xu - Wu @ H)) > 1e-12:
            ok = False
        Xb = unrescale_rows(Xu, record)
        if np.max(np.abs(Xb - X)) > 1e-12:
            ok = False
    _verdict(10, "interval-rescaling-round-trip", ok)


# ---------------------------------------------------------------------------
# 11: synthetic recovery study — bounded model beats plain NMF


def test_11_synthetic_recovery_study():
    t0 = time.time()
    medians = {}
    for p01 in (0.0, 0.15, 0.30):
        scores = {"bssmf": [], "nmf": []}
        for trial in range(10):
            spec = SyntheticSpec(p01=p01, seed=1000 * int(p01 * 100) + trial)
            W_true, H_true, X = generate_synthetic(spec)
            mask = ObservationMask.full(spec.m, spec.n)
            for kind in ("bssmf", "nmf"):
                if kind == "bssmf":
                    variant = ModelVariant.bssmf(
                        BoundsVector.constant(spec.m, 0.0, 1.0))
                else:
                    variant = ModelVariant.nmf(spec.m)
                config = SolverConfig(rank=spec.r, max_outer=300,
                                      max_inner_W=10, max_inner_H=10,
                                      rel_tol=1e-9, seed=trial,
                                      record_trace=False)
                factors, _ = solve(X, mask, variant, config)
                scores[kind].append(
                    match_and_score(W_true, factors.W).mean_mrsa)
        medians[p01] = {k: float(np.median(v)) for k, v in scores.items()}
    elapsed = time.time() - t0

    ok = (
        all(medians[p]["bssmf"] < medians[p]["nmf"] for p in medians)
        and medians[0.30]["bssmf"] < 1.0
        and elapsed < 600.0
    )
    _verdict(11, "synthetic-recovery-study", ok)


# ---------------------------------------------------------------------------
# 12: scatteredness necessary check on known fixtures


def test_12_scatteredness_fixtures():
    ok = True

    # the 6x6 example's H (three interior points per facet) passes
    if not ssc_necessary_check(EXAMPLE_H).overall_pass:
        ok = False

    # the all-equal stochastic matrix has no zeros — fails
    J = np.full((3, 6), 1.0 / 3.0)
    if ssc_necessary_check(J).overall_pass:
        ok = False

    # stacked W from the 6x6 example with bounds [0,3] passes
    bounds = BoundsVector.constant(6, 0.0, 3.0)
    stacked = stack_for_theorem3(EXAMPLE_W, bounds)
    if not ssc_necessary_check(stacked.T, matrix_role="W-stacked").overall_pass:
        ok = False

    # the gauge transform with alpha > 0 destroys the zeros — fails
    _, Ha = ssmf_gauge_transform(EXAMPLE_W, EXAMPLE_H / 4.0, alpha=0.5)
    if ssc_necessary_check(Ha).overall_pass:
        ok = False

    _verdict(12, "scatteredness-fixtures", ok)


# ---------------------------------------------------------------------------
# 13: extrapolation and centering help, directionally


def test_13_acceleration_benefit():
    m, n, r = 40, 50, 5

    extrap_wins = 0
    center_wins = 0
    for seed in range(10):
        local = np.random.default_rng(seed)
        # data with a large additive offset, where centering should help
        lo = np.full(m, 1.0)
        hi = np.full(m, 5.0)
        W = lo[:, None] + local.random((m, r)) * (hi - lo)[:, None]
        H = project_simplex_columns(local.random((r, n)))
        X = np.clip(W @ H + 0.02 * local.standard_normal((m, n)),
                    lo[:, None], hi[:, None])
        mask = ObservationMask.full(m, n)
        bounds = BoundsVector(lower=lo, upper=hi)
        variant = ModelVariant.bssmf(bounds)

        base = dict(rank=r, max_outer=80, max_inner_W=3, max_inner_H=3,
                    rel_tol=0.0, seed=seed)
        _, rep_acc = solve(X, mask, variant,
                           SolverConfig(extrapolate=True, **base))
        _, rep_bcd = solve(X, mask, variant,
                           SolverConfig(extrapolate=False, **base))
        if rep_acc.objective_trace[-1] <= rep_bcd.objective_trace[-1] + 1e-12:
            extrap_wins += 1

        short = dict(rank=r, max_outer=25, max_inner_W=3, max_inner_H=3,
                     rel_tol=0.0, seed=seed)
        _, rep_plain = solve(X, mask, variant, SolverConfig(**short))
        _, rep_cent = solve_centered(X, mask, variant, SolverConfig(**short))
        if rep_cent.objective_trace[-1] <= rep_plain.objective_trace[-1] + 1e-12:
            center_wins += 1

    ok = extrap_wins >= 8 and center_wins >= 7
    _verdict(13, "acceleration-benefit", ok)


# ---------------------------------------------------------------------------
# 14: unconstrained factorization lands near the truncated-SVD optimum


def test_14_mf_vs_svd():
    rng = np.random.default_rng(61)
    ok = True
    for seed in range(5):
        X = rng.standard_normal((20, 15))
        mask = ObservationMask.full(20, 15)
        variant = ModelVariant.mf(20)
        config = SolverConfig(rank=3, max_outer=500, max_inner_W=10,
                              max_inner_H=10, rel_tol=1e-12, seed=seed,
                              record_trace=False)
        factors, report = solve(X, mask, variant, config)
        final = objective(X, factors.W, factors.H, mask)

        # independent oracle: the optimal rank-3 objective via the SVD
        s = np.linalg.svd(X, compute_uv=False)
        best = 0.5 * float(np.sum(s[3:] ** 2))
        if final > 1.05 * best:
            ok = False
    _verdict(14, "mf-vs-svd", ok)
