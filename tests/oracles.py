"""Reference implementations that tests compare the library against, and a
MatrixMarket writer that tests use to make reader fixtures."""

import itertools
import math

import numpy as np

from bssmf.io_formats import MM_BANNER
from bssmf.solver import FactorPair, SolveReport, initialize


def brute_force_assignment(cost):
    """All-permutations minimum of an r x r assignment (test oracle, r <= 8)."""
    cost = np.asarray(cost)
    r = cost.shape[0]
    if r > 8:
        raise ValueError("brute force limited to r <= 8")
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(r)):
        c = sum(cost[i, perm[i]] for i in range(r))
        if c < best:
            best, best_perm = c, perm
    return best, list(best_perm)


def write_matrix_market(path, X, M):
    # zero-copy (m, n) views of the row and column numbers
    grids = (np.broadcast_to(g, X.shape) for g in np.indices(X.shape, sparse=True))
    ri, ci = (M.observed(g).ravel() for g in grids)
    vals = M.observed(X).ravel()
    with open(path, "w", encoding="utf-8") as f:
        f.write(MM_BANNER + "\n")
        f.write(f"{X.shape[0]} {X.shape[1]} {vals.size}\n")
        f.writelines(map("%d %d %.17g\n".__mod__,
                         zip((ri + 1).tolist(), (ci + 1).tolist(), vals.tolist())))


def reference_solve(X, M, variant, config, W=None):
    """The fit that ``solve`` (W None) or ``solve_h`` (W frozen) must return,
    written from the definitions with a dense m x n weighted residual: no
    workspace, step map or Gram-form objective. X is the m x n data.

    - Objective 0.5 ||D o (X - WH)||^2 and gradients -(D o D o (X - WH))H^T
      and -W^T(D o D o (X - WH)), with D the mask's weights (0 off the mask).
    - Step constants L_W = ||HH^T||_2 and L_H = ||(W - c)^T(W - c)||_2 by
      np.linalg.norm, each at least the floor 1e-12 max(1, ||x - c||^2 / mn),
      where c is the observed mean when centering and 0 otherwise.
    - Each block: beta = min((a - 1)/a', 0.9999 sqrt(L_prev/L)) with
      a' = (1 + sqrt(1 + 4a^2))/2 (0 without extrapolation), the step from
      F + beta (F - F_old), and the variant's projection.
    - After each pass the step constants and, when it is computed, the
      objective must be finite, else the stop is "diverged" at the pass
      before; the stop is "tol_reached" once f_(k-10) - f_k < rel_tol f_(k-10).
      With W frozen, the passes are one H block of max_outer x max_inner_H
      steps, uncentered.

    Returns (FactorPair, SolveReport, closest): closest is the least
    |f_(k-10) - f_k - rel_tol f_(k-10)| / f_(k-10) over the stopping tests
    made (inf for none), so a caller can drop fits whose stop rounding decides.
    """
    m, n = M.rows, M.cols
    X = np.asarray(X, dtype=np.float64)
    D = np.ones((m, n))
    if not M.is_full:
        D = np.zeros((m, n))
        D[M.row_idx, M.col_idx] = M.weights
    frozen = W is not None
    center = config.center and not frozen
    start = initialize(M, variant, config, W)
    W, H = start.W, start.H

    def norm2(A):
        return float(np.linalg.norm(A, 2)) if np.all(np.isfinite(A)) else math.nan

    def objective(W, H):
        return 0.5 * float(np.sum((D * (X - W @ H)) ** 2))

    def L_W(H):
        return max(norm2(H @ H.T), floor)

    def L_H(W):
        return max(norm2((W - c).T @ (W - c)), floor)

    class Block:
        def __init__(self, L):
            self.alpha, self.L, self.L_prev = 1.0, L, L

        def run(self, F, F_old, grad, project, n_inner):
            for _ in range(n_inner):
                a = self.alpha
                self.alpha = (1.0 + math.sqrt(1.0 + 4.0 * a * a)) / 2.0
                beta = (min((a - 1.0) / self.alpha, 0.9999 * math.sqrt(self.L_prev / self.L))
                        if config.extrapolate else 0.0)
                F_bar = F + beta * (F - F_old) if beta else F
                F_old, F = F, project(F_bar - grad(F_bar) / self.L)
                self.L_prev = self.L
            return F, F_old

    with np.errstate(over="ignore", invalid="ignore"):
        x = X[D > 0]
        c = float(np.mean(x)) if center else 0.0
        floor = 1e-12 * max(1.0, float(np.sum((x - c) ** 2)) / (m * n))
        W_old, H_old = W, H
        bh = Block(L_H(W))
        blocks = (bh,) if frozen else (Block(L_W(H)), bh)
        passes = 1 if frozen else config.max_outer
        inner_H = config.max_inner_H * (config.max_outer if frozen else 1)
        every_pass = config.record_trace or config.rel_tol > 0
        trace, ltrace, stop, outer, closest = [objective(W, H)], [], "max_iters", 0, math.inf
        if not all(math.isfinite(b.L) for b in blocks):
            passes, stop = 0, "diverged"
        for outer in range(1, passes + 1):
            W_prev, H_prev = W, H
            if not frozen:
                W, W_old = blocks[0].run(W, W_old, lambda V: -(D * D * (X - V @ H)) @ H.T,
                                         variant.project_W, config.max_inner_W)
                bh.L = L_H(W)
            H, H_old = bh.run(H, H_old, lambda V: -W.T @ (D * D * (X - W @ V)),
                              variant.project_H, inner_H)
            if not frozen:
                blocks[0].L = L_W(H)
            f = objective(W, H) if every_pass else 0.0
            Ls = tuple(b.L for b in blocks)
            if not all(map(math.isfinite, Ls + (f,))):
                W, H, outer, stop = W_prev, H_prev, outer - 1, "diverged"
                break
            ltrace.append(Ls)
            if every_pass:
                trace.append(f)
            if config.rel_tol > 0 and len(trace) > 10:
                then = max(trace[-11], 1e-300)
                drop, need = trace[-11] - trace[-1], config.rel_tol * then
                closest = min(closest, abs(drop - need) / then)
                if drop < need:
                    stop = "tol_reached"
                    break
        if not every_pass:
            trace.append(objective(W, H))
    if not config.record_trace:
        trace, ltrace = [trace[0], trace[-1]], []
    return FactorPair(W, H), SolveReport(trace, outer, ltrace, 0.0, stop), closest
