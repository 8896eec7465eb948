"""Uniqueness diagnostics: the scatteredness check, the Theorem 3 stack,
column matching scores, the gauge-transform witness, and synthetic
ground-truth generation.

Column matching solves its r x r assignment with :func:`_assignment`, an
exact Kuhn-Munkres routine in numpy, so this module needs no scipy."""

import math
from dataclasses import dataclass

import numpy as np

from .matrixcore import ShapeError


@dataclass
class SSCRowResult:
    zero_count: int
    zero_set_rank: int
    passes: bool


@dataclass
class SSCReport:
    matrix_role: str
    per_row: list
    overall_pass: bool
    tol_zero: float


def ssc_necessary_check(H, tol_zero=1e-9, matrix_role="H"):
    """Necessary condition for sufficient scatteredness of an r x n matrix:
    every row needs >= r-1 (numerical) zeros whose columns have rank r-1.
    An entry is a zero within tol_zero times max|H| (1 for a zero H);
    tol_zero must be finite and >= 0."""
    if not (math.isfinite(tol_zero) and tol_zero >= 0):
        raise ValueError(f"tol_zero must be finite and >= 0, got {tol_zero}")
    H = np.asarray(H, dtype=np.float64)
    r, n = H.shape
    if r < 2:
        raise ValueError("scatteredness check needs rank r >= 2")
    scale = np.max(np.abs(H))
    thresh = tol_zero * (scale if scale > 0 else 1.0)
    per_row = []
    for k in range(r):
        zero_cols = np.flatnonzero(np.abs(H[k, :]) <= thresh)
        if zero_cols.size == 0:
            per_row.append(SSCRowResult(0, 0, False))
            continue
        sub = H[:, zero_cols]
        sv = np.linalg.svd(sub, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0])) if sv.size and sv[0] > 0 else 0
        per_row.append(
            SSCRowResult(int(zero_cols.size), rank, zero_cols.size >= r - 1 and rank == r - 1)
        )
    return SSCReport(matrix_role, per_row, all(p.passes for p in per_row), tol_zero)


def stack_for_theorem3(W, bounds):
    """Vertical stack [W - a e^T; b e^T - W] (2m x r); its transpose is the
    matrix whose scatteredness certifies uniqueness of the bounded model."""
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != len(bounds):
        raise ShapeError("W row count does not match bounds")
    if not bounds.is_finite:
        raise ValueError("stacking requires finite bounds")
    a, b = bounds.lower[:, None], bounds.upper[:, None]
    if np.any(W < a - 1e-12) or np.any(W > b + 1e-12):
        raise ValueError("W has columns outside [a, b]")
    return np.vstack([W - a, b - W])


def _centered(u):
    """u minus its mean, and the norm of that, as :func:`mrsa` takes them."""
    uc = u - u.mean()
    return uc, np.linalg.norm(uc)


def _angles(dots, nu, nv):
    """MRSA from the dot products of centered vectors and their norms; raises
    on a zero norm (a constant vector)."""
    if np.any(nu == 0) or np.any(nv == 0):
        raise ValueError("mrsa undefined for constant vectors")
    cos = np.clip(dots / (nu * nv), -1.0, 1.0)
    return 100.0 / np.pi * np.arccos(cos)


def mrsa(u, v):
    """Mean-removed spectral angle in [0, 100]: (100/pi) * arccos of the
    cosine between mean-centered vectors."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.shape != v.shape:
        raise ShapeError("mrsa needs equal-length vectors")
    (uc, nu), (vc, nv) = _centered(u), _centered(v)
    return _angles(uc @ vc, nu, nv)


@dataclass
class MatchReport:
    permutation: list
    per_column_mrsa: list
    mean_mrsa: float


def _assignment(cost):
    """Exact minimum-cost assignment of a square cost matrix: the column
    matched to each row.

    Kuhn-Munkres with dual potentials u (rows) and v (columns), in
    shortest-augmenting-path form (Jonker and Volgenant): each row in turn
    grows a Dijkstra tree over the reduced costs cost[i, j] - u[i] - v[j]
    until it reaches a free column, then the matching is flipped along that
    path. Column 0 is a virtual one of infinite cost that holds the row
    being inserted; column j + 1 is cost[:, j]. O(r^3), with the scan over
    columns done by numpy."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"assignment needs a square cost matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("assignment cost has a non-finite entry")
    r = cost.shape[0]
    cost = np.hstack((np.full((r, 1), np.inf), cost))
    u, v = np.zeros(r), np.zeros(r + 1)
    owner = np.full(r + 1, -1)  # row matched to each column, -1 if free
    via = np.zeros(r + 1, dtype=np.intp)  # previous column on the shortest path
    for i in range(r):
        owner[0], j = i, 0
        dist = np.full(r + 1, np.inf)
        done = np.zeros(r + 1, dtype=bool)
        while owner[j] != -1:
            done[j] = True
            k = owner[j]
            reduced = cost[k] - u[k] - v
            closer = ~done & (reduced < dist)
            dist[closer], via[closer] = reduced[closer], j
            j = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j]
            u[owner[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while j:
            owner[j] = owner[via[j]]
            j = via[j]
    cols = np.empty(r, dtype=np.intp)
    cols[owner[1:]] = np.arange(r)
    return cols


def match_and_score(W_true, W_est):
    """Optimal column matching under the MRSA cost: column i of W_true is
    matched to column permutation[i] of W_est by the exact assignment of
    :func:`_assignment`. A NaN column in either matrix makes the cost NaN,
    which raises ValueError."""
    W_true = np.asarray(W_true, dtype=np.float64)
    W_est = np.asarray(W_est, dtype=np.float64)
    if W_true.shape != W_est.shape:
        raise ShapeError(f"shape mismatch {W_true.shape} vs {W_est.shape}")
    r = W_true.shape[1]
    # each column is centered once; each pair takes one dot product of two
    # contiguous columns, so every cost is mrsa's own value bit for bit
    true = [_centered(np.ascontiguousarray(W_true[:, i])) for i in range(r)]
    est = [_centered(np.ascontiguousarray(W_est[:, j])) for j in range(r)]
    dots = np.array([[uc @ vc for vc, _ in est] for uc, _ in true]).reshape(r, r)
    norms_true = np.array([nu for _, nu in true])[:, None]
    cost = _angles(dots, norms_true, np.array([nv for _, nv in est]))
    perm = _assignment(cost).tolist()
    per_col = [float(cost[i, perm[i]]) for i in range(r)]
    return MatchReport(perm, per_col, float(np.mean(per_col)))


def ssmf_gauge_transform(W, H, alpha):
    """The explicit non-uniqueness witness for simplex-structured models:
    W(alpha) = W((1+alpha)I - (alpha/r)J),
    H(alpha) = H/(1+alpha) + alpha/((1+alpha) r) J;
    the product WH is preserved and H(alpha) stays column stochastic."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    r = W.shape[1]
    J = np.ones((r, r))
    W_a = W @ ((1.0 + alpha) * np.eye(r) - (alpha / r) * J)
    H_a = H / (1.0 + alpha) + (alpha / ((1.0 + alpha) * r)) * np.ones_like(H)
    return W_a, H_a


@dataclass
class SyntheticSpec:
    m: int = 100
    n: int = 100
    r: int = 10
    h_zero_fraction: float = 0.30
    p01: float = 0.0
    seed: int = 0


def generate_synthetic(spec):
    """Ground-truth instance: H uniform with a fraction of entries zeroed and
    columns normalized to the simplex (regenerated until the scatteredness
    necessary condition holds), W uniform in [0,1] with floor(p01*m*r) entries
    pinned to {0, 1}; X = W H exactly.

    Raises ValueError unless m, n >= 1, 2 <= r <= min(m, n) (the check needs
    r >= 2, and a solve refuses a rank above min(m, n)) and h_zero_fraction
    and p01 lie in [0, 1]; RuntimeError if no scattered H turns up."""
    if not (spec.m >= 1 and spec.n >= 1):
        raise ValueError(f"synthetic size must be at least 1x1, got {spec.m}x{spec.n}")
    if not 2 <= spec.r <= min(spec.m, spec.n):
        raise ValueError(f"synthetic rank must lie in [2, min(m, n)] = [2, "
                         f"{min(spec.m, spec.n)}], got {spec.r}")
    for name in ("h_zero_fraction", "p01"):
        if not 0 <= getattr(spec, name) <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {getattr(spec, name)}")
    rng = np.random.default_rng(spec.seed)
    H = None
    for _ in range(50):
        cand = rng.uniform(size=(spec.r, spec.n))
        if spec.h_zero_fraction > 0:
            zero = rng.uniform(size=cand.shape) < spec.h_zero_fraction
            cand[zero] = 0.0
        sums = cand.sum(axis=0)
        for j in np.flatnonzero(sums == 0):
            cand[:, j] = rng.uniform(size=spec.r)
            sums[j] = cand[:, j].sum()
        cand /= sums
        if ssc_necessary_check(cand).overall_pass:
            H = cand
            break
    if H is None:
        raise RuntimeError(
            f"no scattered H found in 50 attempts (seed {spec.seed}); try another seed"
        )
    W = rng.uniform(size=(spec.m, spec.r))
    n_pin = int(np.floor(spec.p01 * spec.m * spec.r))
    if n_pin:
        flat = rng.choice(spec.m * spec.r, size=n_pin, replace=False)
        vals = rng.integers(0, 2, size=n_pin).astype(np.float64)
        W.ravel()[flat] = vals
    return W, H, W @ H
