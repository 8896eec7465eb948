"""Bound inference and interval rescaling of rows."""

import numpy as np

from .matrixcore import NonFiniteDataError, ObservationMask, ShapeError
from .projections import BoundsVector


def infer_bounds(X, M=None):
    """Tightest data-consistent per-row bounds: observed min/max of each row.
    X is the data or, with a sparse mask M, its observed values. A NaN or inf
    observed entry raises NonFiniteDataError, as a solve does."""
    X = np.asarray(X, dtype=np.float64)
    M = ObservationMask.full(*X.shape) if M is None else M
    lo, hi = M.row_extrema(X)
    empty = np.flatnonzero(lo > hi)
    if empty.size:
        raise ValueError(f"row {int(empty[0])} has no observed entries; cannot infer bounds")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):  # a NaN entry gives NaN
        raise NonFiniteDataError()
    return BoundsVector(lo, hi)


def _check_rows(X, bounds):
    if X.shape[0] != len(bounds):
        raise ShapeError(f"X has {X.shape[0]} rows, bounds have {len(bounds)}")


def rescale_rows_to_unit(X, bounds):
    """Map row i through (x - a_i) / (b_i - a_i), onto the unit interval.
    Returns the rescaled X and a copy of the bounds, which unrescale_rows takes.

    Exact factorizations carry over: (W, H) for [a, b] corresponds to
    ((W - a e^T) / ((b - a) e^T), H) for [0, 1]^m with the same H.
    """
    X = np.asarray(X, dtype=np.float64)
    _check_rows(X, bounds)
    a, b = bounds.lower, bounds.upper
    if not bounds.is_finite:
        raise ValueError("row rescaling needs finite bounds")
    deg = bounds.degenerate_rows()
    if deg.size:
        raise ValueError(f"row {int(deg[0])} has a_i == b_i; constant rows cannot be rescaled")
    Xp = (X - a[:, None]) / (b - a)[:, None]
    return Xp, BoundsVector(a.copy(), b.copy())


def unrescale_rows(Xp, bounds):
    """Inverse of rescale_rows_to_unit: row i through x (b_i - a_i) + a_i."""
    Xp = np.asarray(Xp, dtype=np.float64)
    _check_rows(Xp, bounds)
    a, b = bounds.lower, bounds.upper
    return Xp * (b - a)[:, None] + a[:, None]
