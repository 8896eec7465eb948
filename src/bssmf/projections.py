"""Column-wise Euclidean projections: a two-ufunc box clamp and a max-threshold simplex rule."""

import functools
import itertools

import numpy as np

from .matrixcore import ShapeError


class BoundsVector:
    """Per-row interval [lower, upper]; +-inf entries encode unbounded rows.
    lower and upper are read-only copies of the arrays given."""

    def __init__(self, lower, upper):
        self.lower = np.array(lower, dtype=np.float64).ravel()
        self.upper = np.array(upper, dtype=np.float64).ravel()
        self.lower.flags.writeable = self.upper.flags.writeable = False
        self._held = None  # (lower, upper) as m x r arrays, for the last r asked
        if self.lower.shape != self.upper.shape:
            raise ShapeError("lower/upper bound lengths differ")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not contain NaN")
        if np.any(self.lower > self.upper):
            i = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower bound {float(self.lower[i])} > "
                             f"upper bound {float(self.upper[i])} at row {i}")

    def __len__(self):
        return self.lower.size

    @property
    def is_finite(self):
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def degenerate_rows(self):
        """Indices i with lower(i) == upper(i)."""
        return np.flatnonzero(self.lower == self.upper)

    def _columns(self, r):
        """lower and upper, each repeated across r columns as an m x r array.
        A clamp against these runs over contiguous memory, about 3x faster
        than against broadcast (m, 1) columns. The pair is kept for the last
        r asked, so a solve builds it once."""
        if self._held is None or self._held[0].shape[1] != r:
            self._held = tuple(np.repeat(b[:, None], r, axis=1) for b in (self.lower, self.upper))
        return self._held

    @classmethod
    def constant(cls, m, lo, hi):
        return cls(np.full(m, float(lo)), np.full(m, float(hi)))

    @classmethod
    def nonnegative(cls, m):
        return cls(np.zeros(m), np.full(m, np.inf))

    @classmethod
    def unbounded(cls, m):
        return cls(np.full(m, -np.inf), np.full(m, np.inf))


def project_box(V, bounds):
    """Clamp each column of V (m x r) into [lower, upper] row-wise."""
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2:
        raise ShapeError(f"V must be m x r, got shape {V.shape}")
    if V.shape[0] != len(bounds):
        raise ShapeError(f"V has {V.shape[0]} rows, bounds have {len(bounds)}")
    lower, upper = bounds._columns(V.shape[1])
    P = np.maximum(V, lower)
    return np.minimum(P, upper, out=P)


def project_simplex_columns(V):
    """Euclidean projection of each column of V (r x n) onto the unit simplex.

    Sort a column descending (s), with prefix sums c_k and g(k) = (c_k - 1)/k.
    The sort rule's threshold is g(rho), rho the largest k with s_k > g(k). As
    k g(k) = (k-1) g(k-1) + s_k, g rises at k exactly when s_k > g(k): on 1..rho
    and never after, so tau = max_k g(k), and the result is max(v - tau, 0).
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        return project_simplex_columns(V[:, None])[:, 0]
    r, n = V.shape
    if r == 1:
        return np.ones((1, n))
    # sorted ascending, then each row plus the one below: S[k] = c_(r-k), by
    # np.cumsum's additions in its order, without its cost per element
    S = np.sort(V, axis=0)
    below = S[-1]
    for row in S[-2::-1]:
        row += below
        below = row
    S -= 1.0
    S /= _counts(r)
    P = V - np.maximum.reduce(S, axis=0)
    return np.maximum(P, 0.0, out=P)


@functools.lru_cache(maxsize=16)
def _counts(r):
    """The read-only r x 1 float64 column (r, r-1, ..., 1): the prefix
    lengths of S[k] in :func:`project_simplex_columns`. Cached per r, so no
    call builds it or casts integers; the values are exact, as the cast was."""
    counts = np.arange(r, 0, -1, dtype=np.float64)[:, None]
    counts.flags.writeable = False
    return counts


def simplex_projection_oracle(v):
    """Brute-force simplex projection by enumerating all nonempty support sets.

    A support S gives the threshold tau = (sum(v_S) - 1)/|S| and the point
    max(v - tau, 0) on S. It is the projection exactly when its KKT
    violation max(tau - min(v_S), max(v off S) - tau, 0) is 0, so the oracle
    returns the point of the support with the smallest violation. That
    figure is defined for every support, and unlike the distance to v it
    does not round away the difference between nearby candidates.

    Test oracle only; refuses r > 12.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    r = v.size
    if r > 12:
        raise ValueError(f"oracle limited to r <= 12, got {r}")
    best = None
    best_violation = np.inf
    for size in range(1, r + 1):
        for support in itertools.combinations(range(r), size):
            on = np.zeros(r, dtype=bool)
            on[list(support)] = True
            tau = (v[on].sum() - 1.0) / size
            off = v[~on].max() if size < r else -np.inf
            violation = max(tau - v[on].min(), off - tau, 0.0)
            if violation < best_violation:
                best_violation = violation
                best = np.where(on, np.maximum(v - tau, 0.0), 0.0)
    return best
