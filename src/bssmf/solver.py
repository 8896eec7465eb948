"""Inertial block-coordinate solver for X ~ WH with bounded W and stochastic H.

Alternates extrapolated projected-gradient passes on W and H with Lipschitz
step sizes (1/||HH^T||_2 and 1/||W^T W||_2), Nesterov-style momentum counters
shared across outer iterations, and a safeguard cap on the extrapolation
weight. Setting extrapolate=False recovers plain block coordinate descent
(PALM), which is monotone. Centering (SolverConfig.center) only changes the
H step constant; see solve. solve_h runs the same loop with W frozen, for
test-time adaptation.
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
        if self.kind == BSSMF:
            return project_box(W, self.bounds)
        if self.kind == NMF:
            return np.maximum(W, 0.0)
        return W

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
        """Check the caps, rel_tol, seed and, unless m is None (a frozen W), the rank."""
        if m is not None and not (1 <= self.rank <= min(m, n)):
            raise ConfigError(f"rank must be in [1, {min(m, n)}], got {self.rank}")
        if self.max_outer < 1 or self.max_inner_W < 1 or self.max_inner_H < 1:
            raise ConfigError("iteration caps must be >= 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ConfigError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")


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

    def raise_if_diverged(self, context, fit="solve"):
        """Raise FloatingPointError, "<fit> diverged <context> after <n>
        passes", if the solve stopped "diverged"."""
        if self.stop_reason == "diverged":
            raise FloatingPointError(f"{fit} diverged {context} after "
                                     f"{self.outer_iterations} passes")


def initialize(M, variant, config, W=None):
    """Random feasible starting point: W(i,:) ~ U[a_i, b_i] (U[0,1] on
    unbounded rows), H ~ U[0,1] column-projected onto the variant's set.
    Given W, only H is drawn, at rank W.shape[1], as the generator's first draw."""
    config.validate(M.rows if W is None else None, M.cols)
    rng = np.random.default_rng(config.seed)
    if W is None:
        lo, hi = variant.bounds.lower, variant.bounds.upper
        lo_f = np.where(np.isfinite(lo), lo, 0.0)
        hi_f = np.where(np.isfinite(hi), hi, np.where(np.isfinite(lo), lo, 0.0) + 1.0)
        W = lo_f[:, None] + (hi_f - lo_f)[:, None] * rng.uniform(size=(M.rows, config.rank))
        # degenerate rows (a_i == b_i) come out constant by construction
    H = variant.project_H(rng.uniform(size=(W.shape[1], M.cols)))
    return FactorPair(W, H)


def _slack(bound):
    """Rounding allowance at a bound: 1e-9 * max(1, |bound|)."""
    return 1e-9 * np.maximum(1.0, np.abs(bound))


def _check_observed(X, M, bounds=None, center=False):
    """Raise NonFiniteDataError on a non-finite observed entry of X; warn if
    one lies outside bounds by more than the rounding slack of :func:`_slack`.

    Returns (floor, c, sum_sq): c the observed mean if center is set, else
    0; floor that of L_W and L_H, 1e-12 times the mean square of X - c over
    all m x n cells, at least 1e-12 (sum((x - c)^2) = sum(x^2) - nnz c^2);
    and sum_sq = sum(x^2), which a full-mask solve's objectives reuse. The
    sum of squares, the plain sum when centering and, with bounds, the row
    extrema come from one
    :meth:`~bssmf.matrixcore.ObservationMask.sweep`, which reads X once. A
    NaN or inf entry makes the sum of squares non-finite, so the elementwise
    scan runs only when it is; it tells such an entry from finite entries
    whose squares overflow.
    """
    total, sum_sq, lo, hi = M.sweep(X, extrema=bounds is not None, total=center)
    if not math.isfinite(sum_sq) and not np.all(np.isfinite(M.observed(X))):
        raise mc.NonFiniteDataError()
    if bounds is not None:
        a, b = bounds.lower, bounds.upper
        if np.any(lo < a - _slack(a)) or np.any(hi > b + _slack(b)):
            warnings.warn("observed entries outside [a, b]; proceeding anyway")
    c = total / M.nnz if center else 0.0
    return 1e-12 * max(1.0, (sum_sq - M.nnz * c * c) / (M.rows * M.cols)), c, sum_sq


class _BlockState:
    """Momentum counter + Lipschitz pair for one factor block."""

    def __init__(self, L):
        self.alpha = 1.0
        self.L = L
        self.L_prev = L

    def beta(self, extrapolate):
        a0 = self.alpha
        self.alpha = (1.0 + math.sqrt(1.0 + 4.0 * a0 * a0)) / 2.0
        if not extrapolate:
            return 0.0
        return min((a0 - 1.0) / self.alpha, 0.9999 * math.sqrt(self.L_prev / self.L))


def _block_step(F, F_old, step, project, state, n_inner, extrapolate):
    """n_inner extrapolated projected-gradient steps on one factor block F;
    step(F_bar) is F_bar - grad(F_bar)/L at the extrapolated point, built
    once for the block by :func:`matrixcore.step_map`.

    The arithmetic runs in place, but only on arrays made in this step: the
    difference F - F_old, and the array step returns, which is fresh on every
    call. F, F_old and the step's own buffers are never written.
    """
    for _ in range(n_inner):
        beta = state.beta(extrapolate)
        if beta != 0.0:
            F_bar = F - F_old
            F_bar *= beta
            F_bar += F
        else:
            F_bar = F
        F_old = F
        F = project(step(F_bar))
        state.L_prev = state.L
    return F, F_old


def update_W_block(X, W, H, M, variant, state, W_old, n_inner, extrapolate, work=None):
    """n_inner steps on W with H frozen, at the step constant state.L; the
    step's products of H come from work (a matrixcore.Workspace) when given."""
    return _block_step(W, W_old, mc.step_map(X, H, M, "W", state.L, work),
                       variant.project_W, state, n_inner, extrapolate)


def update_H_block(X, W, H, M, variant, state, H_old, n_inner, extrapolate, work=None):
    """n_inner steps on H with W frozen, at the step constant state.L; the
    step's products of W come from work (a matrixcore.Workspace) when given."""
    return _block_step(H, H_old, mc.step_map(X, W, M, "H", state.L, work),
                       variant.project_H, state, n_inner, extrapolate)


def solve(X, M, variant, config):
    """Run the block-coordinate solver; returns (FactorPair, SolveReport).

    X is the m x n data or, for a sparse mask, its observed values M.values.

    With config.center set (bssmf variant only), L_H is ||(W - c)^T (W - c)||_2
    for c the mean of the observed values; data, bounds, start, objectives and
    the returned W are the caller's own. This is the solve of x - c on
    [a - c, b - c], shifted back: the columns of H sum to one, so the residual
    and the W step are unchanged, and the H gradient changes by a constant
    down each column, which simplex projection removes. On offset data the
    c^2 m 11^T part of ||W^T W||_2 would make every H step tiny.

    With rel_tol == 0 and record_trace off, only the first and last
    objectives are kept, so only those two are computed. One
    :class:`matrixcore.Workspace` serves the whole solve: the step constants,
    the blocks and the objectives (:meth:`matrixcore.Workspace.objective`,
    in the Gram form on a full mask until that form declines near an exact
    fit) take the products of the factors from it, so each is formed once.

    The starting step constants, and after each outer pass the step
    constants L_W, L_H and the objective, when computed, must be finite. If
    one is not (finite data whose squares overflow), the solve stops with
    stop_reason "diverged" and returns the iterate before that pass, the
    start for the starting constants; outer_iterations counts the finite
    passes. The starting objective is not checked: a fit can go on from an
    infinite one. :meth:`SolveReport.raise_if_diverged` turns the stop into
    FloatingPointError.
    """
    return _solve(X, M, variant, config)


def solve_h(X, M, W, variant, config):
    """Fit H against the frozen factor W; returns (H, SolveReport).

    This is :func:`solve`'s loop without the W block: the same checks, start
    (H as :func:`initialize` draws it given W, at rank W.shape[1]), report and
    "diverged" stop, uncentered. W never changes, so the max_outer passes of
    max_inner_H steps are one block of max_outer * max_inner_H steps with one
    step build, reported as one pass with lipschitz_trace entries (L_H,).
    """
    factors, report = _solve(X, M, variant, replace(config, center=False), W)
    return factors.H, report


def _solve(X, M, variant, config, W=None):
    """The loop of :func:`solve`; given W, that of :func:`solve_h`."""
    factors = initialize(M, variant, config, W)
    frozen = W is not None
    x = M.observed(np.asarray(X, dtype=np.float64))  # every kernel below takes it for X
    if config.center and variant.kind != BSSMF:
        raise ConfigError("centering requires the bounded simplex variant")
    if config.center and M.nnz == 0:
        raise ValueError("cannot center with an empty mask")
    floor, c, sum_sq = _check_observed(x, M, variant.bounds if variant.kind == BSSMF
                                       else None, config.center)
    if M.nnz == 0:
        return factors, SolveReport([0.0], stop_reason="tol_reached")

    t0 = time.perf_counter()
    W, H = factors.W, factors.H
    W_old, H_old = W, H
    work = mc.Workspace(M)  # the factors' products and sparse buffers, for the whole solve

    def L_H(W):
        if c:  # the Gram matrix of W - c, formed from one array
            Wc = W - c
            return max(mc.spectral_norm(Wc.T @ Wc), floor)
        return max(mc.spectral_norm(work.product("gram", "H", W)), floor)

    def L_W(H):
        return max(mc.spectral_norm(work.product("gram", "W", H)), floor)

    sh = _BlockState(L_H(W))
    if frozen:  # the passes are one H block, as solve_h says
        states, passes, inner_H = (sh,), 1, config.max_outer * config.max_inner_H
    else:
        sw = _BlockState(L_W(H))
        states, passes, inner_H = (sw, sh), config.max_outer, config.max_inner_H

    every_pass = config.record_trace or config.rel_tol > 0
    trace = [work.objective(x, W, H, M, sum_sq)]
    ltrace, stop, outer = [], "max_iters", 0
    if not all(map(math.isfinite, (state.L for state in states))):  # no pass can be finite
        passes, stop = 0, "diverged"
    for outer in range(1, passes + 1):
        W_prev, H_prev = W, H
        if not frozen:
            W, W_old = update_W_block(x, W, H, M, variant, sw, W_old, config.max_inner_W,
                                      config.extrapolate, work)
            sh.L = L_H(W)
        H, H_old = update_H_block(x, W, H, M, variant, sh, H_old, inner_H,
                                  config.extrapolate, work)
        if not frozen:
            sw.L = L_W(H)
        f = work.objective(x, W, H, M, sum_sq) if every_pass else 0.0
        Ls = tuple(state.L for state in states)
        if not (all(map(math.isfinite, Ls)) and math.isfinite(f)):
            # overflow: the next steps would be NaN, so keep the last finite pass
            W, H, outer, stop = W_prev, H_prev, outer - 1, "diverged"
            break
        ltrace.append(Ls)
        if every_pass:
            trace.append(f)
        if config.rel_tol > 0 and len(trace) > 10:  # rel_tol > 0 computes every pass
            if trace[-11] - trace[-1] < config.rel_tol * max(trace[-11], 1e-300):
                stop = "tol_reached"
                break
    if not every_pass:
        trace.append(work.objective(x, W, H, M, sum_sq))
    if not config.record_trace:
        trace, ltrace = [trace[0], trace[-1]], []
    return FactorPair(W, H), SolveReport(trace, outer, ltrace, time.perf_counter() - t0, stop)


def solve_centered(X, M, variant, config):
    """:func:`solve` with config.center set (L_H taken at W - mean(x))."""
    return solve(X, M, variant, replace(config, center=True))


def predict_cells(W, H, rows, cols, bounds=None):
    """Vectorized W(i,:) . H(:,j) over index arrays; bound-checked and clamped
    row-wise when bounds are given. A value beyond a finite bound by more
    than that bound's own :func:`_slack` raises ValueError."""
    rows = np.asarray(rows, dtype=np.intp)
    vals = mc.product_at(W, H, rows, cols)  # raises IndexError on a cell out of range
    if bounds is not None:
        lo = bounds.lower[rows]
        hi = bounds.upper[rows]
        finite = np.isfinite(lo) & np.isfinite(hi)
        v, a, b = vals[finite], lo[finite], hi[finite]
        if not (np.all(v >= a - _slack(a)) and np.all(v <= b + _slack(b))):
            raise ValueError("prediction escapes per-row bounds")
        vals = np.clip(vals, lo, hi)
    return vals

