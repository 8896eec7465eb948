"""Bound inference, interval rescaling, column normalization, centering."""

from dataclasses import dataclass

import numpy as np

from .matrixcore import ObservationMask
from .projections import BoundsVector


@dataclass
class PreprocessRecord:
    """Parameters needed to invert a forward transform."""

    kind: str  # row_rescale | column_rescale | center
    params: dict


def _mask_for(X, M):
    """M, or a full mask when M is None."""
    return ObservationMask.full(*X.shape) if M is None else M


def infer_bounds(X, M=None):
    """Tightest data-consistent per-row bounds: observed min/max of each row."""
    X = np.asarray(X, dtype=np.float64)
    lo, hi = _mask_for(X, M).row_extrema(X)
    empty = np.flatnonzero(lo > hi)
    if empty.size:
        raise ValueError(f"row {int(empty[0])} has no observed entries; cannot infer bounds")
    return BoundsVector(lo, hi)


def rescale_rows_to_unit(X, bounds):
    """Map row i through (x - a_i) / (b_i - a_i), onto the unit interval.

    Exact factorizations carry over: (W, H) for [a, b] corresponds to
    ((W - a e^T) / ((b - a) e^T), H) for [0, 1]^m with the same H.
    """
    X = np.asarray(X, dtype=np.float64)
    a, b = bounds.lower, bounds.upper
    if not bounds.is_finite:
        raise ValueError("row rescaling needs finite bounds")
    deg = bounds.degenerate_rows()
    if deg.size:
        raise ValueError(
            f"row {int(deg[0])} has a_i == b_i; remove constant rows first"
        )
    Xp = (X - a[:, None]) / (b - a)[:, None]
    return Xp, PreprocessRecord("row_rescale", {"lower": a.copy(), "upper": b.copy()})


def unrescale_rows(Xp, record):
    a, b = record.params["lower"], record.params["upper"]
    return Xp * (b - a)[:, None] + a[:, None]


def remove_constant_rows(X, M=None, tol=0.0):
    """Drop rows whose observed entries span <= tol; returns (X_reduced, keep_map).

    keep_map[k] is the original row index of reduced row k; a dropped row's
    constant is its observed minimum (0 for a row with no observed entry).
    Reinsert constant rows into a solved W with reinsert_constant_rows.
    """
    X = np.asarray(X, dtype=np.float64)
    lo, hi = _mask_for(X, M).row_extrema(X)
    varies = hi - lo > tol
    keep = np.flatnonzero(varies).tolist()
    dropped = {int(i): float(lo[i]) if lo[i] <= hi[i] else 0.0
               for i in np.flatnonzero(~varies)}
    if not keep:
        raise ValueError("all rows are constant; nothing to factorize")
    return X[keep, :], {"keep": keep, "dropped": dropped, "m": X.shape[0]}


def reinsert_constant_rows(W_reduced, row_map):
    """Rebuild a full W: constant rows become their constant in every column."""
    m = row_map["m"]
    W = np.empty((m, W_reduced.shape[1]))
    W[row_map["keep"], :] = W_reduced
    for i, c in row_map["dropped"].items():
        W[i, :] = c
    return W


def rescale_columns_to_unit(X):
    """Per-column min-max normalization onto [0, 1] (image-style preprocessing;
    this is data prep, not an equivalence transform)."""
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    flat = np.flatnonzero(hi == lo)
    if flat.size:
        raise ValueError(f"column {int(flat[0])} is constant; cannot rescale")
    Xp = (X - lo) / (hi - lo)
    return Xp, PreprocessRecord("column_rescale", {"lo": lo, "hi": hi})


def unrescale_columns(Xp, record):
    lo, hi = record.params["lo"], record.params["hi"]
    return Xp * (hi - lo) + lo


def center(X, M=None):
    """Subtract the mean of observed entries; returns (X', c, record)."""
    X = np.asarray(X, dtype=np.float64)
    M = _mask_for(X, M)
    if M.nnz == 0:
        raise ValueError("cannot center: no observed entries")
    c = float(np.mean(M.observed(X)))
    return X - c, c, PreprocessRecord("center", {"c": c})


def uncenter(Xp, record):
    return Xp + record.params["c"]
