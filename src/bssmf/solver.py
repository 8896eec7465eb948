"""Inertial block-coordinate solver for X ~ WH with bounded W and stochastic H.

Alternates extrapolated projected-gradient passes on W and H with Lipschitz
step sizes (1/||HH^T||_2 and 1/||W^T W||_2), Nesterov-style momentum counters
shared across outer iterations, and a safeguard cap on the extrapolation
weight. Setting extrapolate=False recovers plain block coordinate descent
(PALM), which is monotone. Centering (SolverConfig.center) only changes the
H step constant; see solve.
"""

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import matrixcore as mc
from .projections import BoundsVector, project_box, project_simplex_columns


class ConfigError(ValueError):
    """Invalid solver configuration."""


BSSMF = "bssmf"
NMF = "nmf"
MF = "mf"


@dataclass
class ModelVariant:
    """Constraint set selector: bounded W + stochastic H, nonnegative, or free."""

    kind: str
    bounds: BoundsVector

    @classmethod
    def from_kind(cls, kind, bounds):
        """The variant named kind; nmf and mf take only the row count of bounds."""
        if kind == BSSMF:
            return cls.bssmf(bounds)
        if kind == NMF:
            return cls.nmf(len(bounds))
        if kind == MF:
            return cls.mf(len(bounds))
        raise ConfigError(f"unknown variant {kind!r} (expected {BSSMF}, {NMF} or {MF})")

    @classmethod
    def bssmf(cls, bounds):
        if not bounds.is_finite:
            raise ConfigError("bssmf variant requires finite bounds")
        return cls(BSSMF, bounds)

    @classmethod
    def nmf(cls, m):
        return cls(NMF, BoundsVector.nonnegative(m))

    @classmethod
    def mf(cls, m):
        return cls(MF, BoundsVector.unbounded(m))

    def project_W(self, W):
        if self.kind == MF:
            return W
        return project_box(W, self.bounds)

    def project_H(self, H):
        if self.kind == BSSMF:
            return project_simplex_columns(H)
        if self.kind == NMF:
            return np.maximum(H, 0.0)
        return H


@dataclass
class SolverConfig:
    rank: int
    max_outer: int = 500
    max_inner_W: int = 20
    max_inner_H: int = 20
    rel_tol: float = 1e-7
    extrapolate: bool = True
    center: bool = False
    seed: int = 0
    record_trace: bool = True

    def validate(self, m, n):
        if not (1 <= self.rank <= min(m, n)):
            raise ConfigError(f"rank must be in [1, {min(m, n)}], got {self.rank}")
        if self.max_outer < 1 or self.max_inner_W < 1 or self.max_inner_H < 1:
            raise ConfigError("iteration caps must be >= 1")
        if self.rel_tol < 0:
            raise ConfigError("rel_tol must be >= 0")


@dataclass
class FactorPair:
    W: np.ndarray
    H: np.ndarray


@dataclass
class SolveReport:
    objective_trace: list = field(default_factory=list)
    outer_iterations: int = 0
    lipschitz_trace: list = field(default_factory=list)
    wall_time: float = 0.0
    stop_reason: str = "max_iters"  # or "tol_reached", "diverged"


def initialize(X, M, variant, config):
    """Random feasible starting point: W(i,:) ~ U[a_i, b_i] (U[0,1] on
    unbounded rows), H ~ U[0,1] column-projected onto the variant's set."""
    m, n = X.shape
    config.validate(m, n)
    r = config.rank
    rng = np.random.default_rng(config.seed)
    lo, hi = variant.bounds.lower, variant.bounds.upper
    lo_f = np.where(np.isfinite(lo), lo, 0.0)
    hi_f = np.where(np.isfinite(hi), hi, np.where(np.isfinite(lo), lo, 0.0) + 1.0)
    W = lo_f[:, None] + (hi_f - lo_f)[:, None] * rng.uniform(size=(m, r))
    # degenerate rows (a_i == b_i) come out constant by construction
    H = variant.project_H(rng.uniform(size=(r, n)))
    return FactorPair(W, H)


def _check_observed(X, M, bounds=None, c=0.0):
    """Raise on a non-finite observed entry of X; warn if one lies outside bounds.

    Returns the floor of the step constants L_W and L_H: 1e-12 times the mean
    square of X - c over all m x n cells, and at least 1e-12, where c is 0 or
    the observed mean (then sum((x - c)^2) = sum(x^2) - nnz c^2). The sum of
    squares takes one pass and no temporary: einsum, not x @ x, because a BLAS
    dot wakes the BLAS worker threads, which then spin for about 0.1 s of CPU
    time after returning. A NaN or inf entry makes that sum non-finite, so
    the elementwise scan runs only when it is; it tells such an entry from
    finite entries whose squares overflow.
    """
    x = np.ravel(M.observed(X), order="K")  # no copy for a contiguous X
    sum_sq = float(np.einsum("i,i->", x, x))
    if not np.isfinite(sum_sq) and not np.all(np.isfinite(x)):
        raise ValueError("X has a non-finite (NaN or inf) observed entry")
    if bounds is not None:
        lo, hi = M.row_extrema(X)
        if np.any(lo < bounds.lower) or np.any(hi > bounds.upper):
            warnings.warn("observed entries outside [a, b]; proceeding anyway")
    return 1e-12 * max(1.0, (sum_sq - M.nnz * c * c) / (M.rows * M.cols))


class _BlockState:
    """Momentum counter + Lipschitz pair for one factor block."""

    def __init__(self, L):
        self.alpha = 1.0
        self.L = L
        self.L_prev = L

    def beta(self, extrapolate):
        a0 = self.alpha
        self.alpha = (1.0 + np.sqrt(1.0 + 4.0 * a0 * a0)) / 2.0
        if not extrapolate:
            return 0.0
        return min((a0 - 1.0) / self.alpha, 0.9999 * np.sqrt(self.L_prev / self.L))


def _block_step(F, F_old, gradient, project, state, n_inner, extrapolate):
    """n_inner extrapolated projected-gradient steps on one factor block F;
    gradient(F_bar) is the block gradient at the extrapolated point."""
    for _ in range(n_inner):
        beta = state.beta(extrapolate)
        F_bar = F + beta * (F - F_old) if beta != 0.0 else F
        F_old = F
        F = project(F_bar - gradient(F_bar) / state.L)
        state.L_prev = state.L
    return F, F_old


def update_W_block(X, W, H, M, variant, state, W_old, n_inner, extrapolate):
    return _block_step(W, W_old, mc.block_gradient(X, H, M, "W"),
                       variant.project_W, state, n_inner, extrapolate)


def update_H_block(X, W, H, M, variant, state, H_old, n_inner, extrapolate):
    return _block_step(H, H_old, mc.block_gradient(X, W, M, "H"),
                       variant.project_H, state, n_inner, extrapolate)


def solve(X, M, variant, config):
    """Run the block-coordinate solver; returns (FactorPair, SolveReport).

    With config.center set (bssmf variant only), L_H is ||(W - c)^T (W - c)||_2
    for c the mean of the observed values; data, bounds, start, objectives and
    the returned W are the caller's own. This is the solve of x - c on
    [a - c, b - c], shifted back: the columns of H sum to one, so the residual
    and the W step are unchanged, and the H gradient changes by a constant
    down each column, which simplex projection removes. On offset data the
    c^2 m 11^T part of ||W^T W||_2 would make every H step tiny.

    With rel_tol == 0 and record_trace off, only the first and last
    objectives are kept, so only those two are computed.

    After each outer pass the step constants L_W, L_H and the objective, when
    computed, must be finite. If one is not (finite data whose squares
    overflow), the solve stops with stop_reason "diverged" and returns the
    iterate before that pass; outer_iterations counts the finite passes.
    """
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    config.validate(m, n)
    x = M.observed(X)  # gathered once; every kernel below takes it for X
    c = 0.0
    if config.center:
        if variant.kind != BSSMF:
            raise ConfigError("centering requires the bounded simplex variant")
        if M.nnz == 0:
            raise ValueError("cannot center with an empty mask")
        c = float(np.mean(x))  # the check below rejects a NaN or inf entry
    floor = _check_observed(x, M, variant.bounds if variant.kind == BSSMF else None, c)

    def lipschitz_H(W):
        Wc = W - c if c else W
        return max(mc.spectral_norm(Wc.T @ Wc), floor)

    factors = initialize(X, M, variant, config)
    report = SolveReport()
    if M.nnz == 0:
        report.objective_trace = [0.0]
        report.stop_reason = "tol_reached"
        return factors, report

    t0 = time.perf_counter()
    W, H = factors.W, factors.H
    W_old, H_old = W, H
    sw = _BlockState(max(mc.spectral_norm(H @ H.T), floor))
    sh = _BlockState(lipschitz_H(W))

    every_pass = config.record_trace or config.rel_tol > 0
    trace = [mc.objective(x, W, H, M)]
    ltrace = []
    stop = "max_iters"
    outer = 0
    for outer in range(1, config.max_outer + 1):
        W_prev, H_prev = W, H
        W, W_old = update_W_block(x, W, H, M, variant, sw, W_old,
                                  config.max_inner_W, config.extrapolate)
        sh.L = lipschitz_H(W)
        H, H_old = update_H_block(x, W, H, M, variant, sh, H_old,
                                  config.max_inner_H, config.extrapolate)
        sw.L = max(mc.spectral_norm(H @ H.T), floor)
        f = mc.objective(x, W, H, M) if every_pass else 0.0
        if not (math.isfinite(sw.L) and math.isfinite(sh.L) and math.isfinite(f)):
            # overflow: the next steps would be NaN, so keep the last finite pass
            W, H = W_prev, H_prev
            outer -= 1
            stop = "diverged"
            break
        ltrace.append((sw.L, sh.L))
        if not every_pass:
            continue
        trace.append(f)
        if config.rel_tol > 0 and len(trace) > 10:
            f_then, f_now = trace[-11], trace[-1]
            if f_then - f_now < config.rel_tol * max(f_then, 1e-300):
                stop = "tol_reached"
                break
    if not every_pass:
        trace.append(mc.objective(x, W, H, M))

    report.objective_trace = trace if config.record_trace else [trace[0], trace[-1]]
    report.outer_iterations = outer
    report.lipschitz_trace = ltrace if config.record_trace else []
    report.wall_time = time.perf_counter() - t0
    report.stop_reason = stop
    return FactorPair(W, H), report


def solve_centered(X, M, variant, config):
    """:func:`solve` with config.center set (L_H taken at W - mean(x))."""
    return solve(X, M, variant, replace(config, center=True))


def predict_cells(W, H, rows, cols, bounds=None):
    """Vectorized W(i,:) . H(:,j) over index arrays; bound-checked and clamped
    row-wise when bounds are given."""
    rows = np.asarray(rows, dtype=np.intp)
    vals = mc.product_at(W, H, rows, cols)  # raises IndexError on a cell out of range
    if bounds is not None:
        lo = bounds.lower[rows]
        hi = bounds.upper[rows]
        finite = np.isfinite(lo) & np.isfinite(hi)
        slack = 1e-9 * np.maximum(1.0, np.abs(hi[finite]))
        if not (np.all(vals[finite] >= lo[finite] - slack)
                and np.all(vals[finite] <= hi[finite] + slack)):
            raise ValueError("prediction escapes per-row bounds")
        vals = np.clip(vals, lo, hi)
    return vals

