"""Observation masks and the kernels over them: masked residuals, objective,
gradients, spectral norm.

While one factor is frozen for a block of inner steps, :func:`block_gradient`
does the work that depends on it only once: the Gram matrix and data product
of the frozen factor for a full mask, its rows gathered at the observed cells
for a sparse mask. The objective is not computed in that Gram form
(0.5||X||^2 - <X, WH> + 0.5<W^T W, HH^T>): near an exact fit its terms cancel,
and the stopping test and exact-recovery checks need the small residual. For a
full mask it forms WH once and subtracts and squares in that buffer, so each
evaluation allocates one m x n array and never writes X, W or H.
"""

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Raised when matrix dimensions are incompatible."""


class DuplicateCellError(ValueError):
    """Raised when a mask lists a cell twice; row and col are 0-based."""

    def __init__(self, row, col):
        super().__init__(f"duplicate cell in mask at 0-based (row, col) = ({row}, {col})")
        self.row, self.col = row, col


class ObservationMask:
    """Per-entry observation weights in (0, 1]; unlisted cells are missing (weight 0).

    A full mask (all weights 1) is stored as a sentinel without materializing
    entries. A sparse mask keeps its cells in canonical column-major order
    (sorted by column, then row), whatever order they were given in, together
    with the matching CSC pattern. This class is the only place that tells the
    two cases apart: callers read observed values through :meth:`observed` and
    :meth:`row_extrema`.
    """

    def __init__(self, rows, cols, row_idx=None, col_idx=None, weights=None, _full=False):
        if rows < 1 or cols < 1:
            raise ShapeError(f"mask shape must be positive, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self._full = _full
        if _full:
            self.row_idx = self.col_idx = self.weights = self._flat = self._pattern = None
            return
        row_idx = np.asarray(row_idx if row_idx is not None else [], dtype=np.intp)
        col_idx = np.asarray(col_idx if col_idx is not None else [], dtype=np.intp)
        weights = np.asarray(weights if weights is not None else [], dtype=np.float64)
        if not (row_idx.shape == col_idx.shape == weights.shape):
            raise ShapeError("mask index/weight arrays must have equal length")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise ShapeError("mask row index out of range")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise ShapeError("mask col index out of range")
            if not np.all((weights > 0) & (weights <= 1)):
                raise ValueError("mask weights must lie in (0, 1]")
        key = col_idx * rows + row_idx
        order = np.argsort(key)
        key = key[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            col, row = divmod(int(key[dup[0]]), rows)
            raise DuplicateCellError(row, col)
        self.row_idx = row_idx[order]
        self.col_idx = col_idx[order]
        self.weights = weights[order]
        self._flat = self.row_idx * cols + self.col_idx  # row-major offsets
        indptr = np.searchsorted(self.col_idx, np.arange(cols + 1))
        self._pattern = sp.csc_matrix((self.weights, self.row_idx, indptr), shape=(rows, cols))

    @classmethod
    def full(cls, rows, cols):
        return cls(rows, cols, _full=True)

    @property
    def is_full(self):
        return self._full

    @property
    def nnz(self):
        return self.rows * self.cols if self._full else self.row_idx.size

    def observed(self, A):
        """Entries of the rows x cols array A at observed cells: A itself for a
        full mask (no copy), else a 1-D array in canonical order."""
        if self._full:
            return A
        if A.shape != (self.rows, self.cols):
            raise ShapeError(f"array shape {A.shape} != mask shape {self.rows}x{self.cols}")
        if A.flags.c_contiguous:  # a flat gather is about 2.5x faster
            return np.take(A, self._flat)
        return A[self.row_idx, self.col_idx]

    def row_extrema(self, A):
        """Per-row (min, max) of A over observed cells; (inf, -inf) for a row
        with none."""
        if self._full:
            return A.min(axis=1), A.max(axis=1)
        vals = self.observed(A)
        lo = np.full(self.rows, np.inf)
        hi = np.full(self.rows, -np.inf)
        np.minimum.at(lo, self.row_idx, vals)
        np.maximum.at(hi, self.row_idx, vals)
        return lo, hi


def _check_dims(X, W, H, M):
    m, n = X.shape
    if W.shape[0] != m or H.shape[1] != n or W.shape[1] != H.shape[0]:
        raise ShapeError(
            f"incompatible shapes X{X.shape}, W{W.shape}, H{H.shape}"
        )
    if M.rows != m or M.cols != n:
        raise ShapeError(f"mask shape {M.rows}x{M.cols} != data shape {m}x{n}")


def _take_rows(A, idx):
    """Rows idx of A, gathered from a C-contiguous copy (a no-op copy when A
    already is one); much faster than fancy-indexing a strided view."""
    return np.take(np.ascontiguousarray(A), idx, axis=0)


def _row_dots(A, B):
    """Dot product of each row of A with the same row of B."""
    return np.einsum("ij,ij->i", A, B)


def product_at(W, H, row_idx, col_idx):
    """(WH)(i, j) evaluated only at the listed cells."""
    return _row_dots(_take_rows(W, row_idx), _take_rows(H.T, col_idx))


def _residual(X, W, H, M):
    """M o (X - WH) at observed cells, always in a new array that the caller
    may overwrite: a dense ndarray for a full mask (weights are all 1), else
    the 1-D values in canonical order. A full mask subtracts in place into the
    product WH, so one m x n array is allocated; the dense product is never
    formed for a sparse mask."""
    _check_dims(X, W, H, M)
    if M.is_full:
        R = W @ H
        return np.subtract(X, R, out=R if R.dtype == np.result_type(X, R) else None)
    return M.weights * (M.observed(X) - product_at(W, H, M.row_idx, M.col_idx))


def _on_pattern(M, vals):
    """CSC matrix with the values vals (canonical order) on M's cells."""
    P = M._pattern
    return sp.csc_matrix((vals, P.indices, P.indptr), shape=P.shape)


def masked_residual(X, W, H, M):
    """M o (X - WH) at observed cells.

    Full mask: dense ndarray. Sparse mask: CSC matrix holding the weighted
    residual only at observed cells, stored in the mask's canonical
    column-major order.
    """
    R = _residual(X, W, H, M)
    return R if M.is_full else _on_pattern(M, R)


def objective(X, W, H, M):
    """0.5 * sum over observed cells of (M(i,j) * (X - WH)(i,j))^2.

    A sparse mask sums its residual vector in canonical column-major order,
    so the result does not depend on the order the cells were given in.
    The residual is squared in place, so a full mask needs one m x n buffer.
    """
    R = _residual(X, W, H, M)
    return 0.5 * float(np.sum(np.square(R, out=R), dtype=np.float64))


def block_gradient(X, F, M, side):
    """Gradient of the masked objective in one factor while the other, F,
    stays frozen, as a function of the free factor.

    side="W": F is H and the result maps W to -(MoMo(X-WH)) H^T.
    side="H": F is W and the result maps H to -W^T (MoMo(X-WH)).
    Everything that depends only on F is computed here, once per block. A
    full mask precomputes the Gram matrix and the data product (HH^T and
    XH^T, or W^TW and W^TX), so each gradient costs O(mr^2) or O(nr^2) and
    forms no m x n residual. A sparse mask gathers F once at the observed
    cells and each gradient gathers only the free factor; only the values
    of one CSC matrix on the mask's pattern change between calls.
    """
    if side not in ("W", "H"):
        raise ValueError(f"side must be 'W' or 'H', got {side!r}")
    X = np.asarray(X)
    m, n = X.shape
    if side == "W":
        fits, free_shape = F.shape[1] == n, (m, F.shape[0])
    else:
        fits, free_shape = F.shape[0] == m, (F.shape[1], n)
    if not fits or (M.rows, M.cols) != (m, n):
        raise ShapeError(f"incompatible shapes X{X.shape}, frozen factor {F.shape}, "
                         f"mask {M.rows}x{M.cols}")

    if M.is_full:
        if side == "W":
            G, XFt = F @ F.T, X @ F.T
            grad = lambda W: W @ G - XFt
        else:
            G, FtX = F.T @ F, F.T @ X
            grad = lambda H: G @ H - FtX
    else:
        x, w2 = M.observed(X), M.weights**2
        R = _on_pattern(M, np.empty_like(w2))
        if side == "W":
            Ft = np.ascontiguousarray(F.T)
            F_at = np.take(Ft, M.col_idx, axis=0)

            def grad(W):
                R.data = w2 * (_row_dots(_take_rows(W, M.row_idx), F_at) - x)
                return R @ Ft
        else:
            F_at = _take_rows(F, M.row_idx)
            R = R.T  # CSR on the transposed pattern

            def grad(H):
                R.data = w2 * (_row_dots(F_at, _take_rows(H.T, M.col_idx)) - x)
                return (R @ F).T

    def gradient(A):
        if A.shape != free_shape:
            raise ShapeError(f"free factor {side} must be {free_shape}, got {A.shape}")
        return grad(A)

    return gradient


def gradient_W(X, W, H, M):
    """Gradient of the masked objective w.r.t. W: -(MoMo(X-WH)) H^T."""
    return block_gradient(X, H, M, "W")(W)


def gradient_H(X, W, H, M):
    """Gradient of the masked objective w.r.t. H: -W^T (MoMo(X-WH))."""
    return block_gradient(X, W, M, "H")(H)


def spectral_norm(A):
    """Largest eigenvalue of a symmetric PSD matrix (0 for the zero matrix)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"spectral_norm needs a square matrix, got {A.shape}")
    return max(float(np.linalg.eigvalsh(A)[-1]), 0.0)
