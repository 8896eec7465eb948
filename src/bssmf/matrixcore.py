"""Observation masks and the kernels over them: masked residuals, objective,
gradients, the inner step of a block, spectral norm.

On a sparse mask, WH is needed only at the observed cells. It is computed as a
sampled dense-dense product (SDDMM): the mask's cells are in column-major
order, so the cells of columns [j0, j1) are one contiguous slice. For each
column block the product H[:, j0:j1]^T W^T goes into one reused buffer by BLAS,
and the block's cells are taken from it by their precomputed flat offsets. The
blocks are sized so that the buffer holds about _BLOCK_BYTES, so a product at
the cells needs O(m b + nnz) memory for a block of b columns, not an nnz x r
gather of each factor. The residual, both gradients and :func:`product_at`
all use this one kernel.

The checks on the data read it once. On a full mask, :meth:`ObservationMask.sweep`
takes the row minima and maxima, the sum and the sum of squares of X over
blocks of rows of about _SWEEP_BYTES (512 KB, which fits in a core's L2
cache): each block comes from memory once and its reductions then read it
from cache. :meth:`ObservationMask.row_extrema` is the same sweep without the sums.

What is fixed for a solve, a block or a call is built once for it:

- per mask, which is shared data: the cells in canonical order, their
  weights and, for sparse data, their observed values;
- per solve: a :class:`Workspace` of X, the mask and ||x||^2, from which its
  kernels read the data. It holds the last products of each frozen factor,
  the Gram matrix (HH^T on the W side, W^TW on the H side) and the product
  with X (XH^T or W^TX), and hands one back only for that same factor. So a
  solve forms each product once: the step constant, the steps of a block
  and the objective share it. Both products with X take X as BLAS's
  right-hand operand: W^TX as W^T @ X, and XH^T as (H @ X^T)^T, the
  transpose of an r x m product. At 2000 x 2000, rank 20, with 2 OpenBLAS
  threads, that takes 3.5 ms where X @ H^T takes 4.3 ms, and leaves 1.6 MB
  of OpenBLAS buffer resident where X @ H^T leaves 6.5 MB. The held XH^T
  is therefore Fortran-ordered. For a sparse mask it also holds the block plan
  of the product at the cells, the CSC column pointers of the cells, the
  residual values, the block buffer and the squared weights unless every
  weight is 1. The gradients and objectives of the solve overwrite the
  residual and the buffer, so a solve holds one set;
- per block, while one factor is frozen: :func:`step_map` builds the inner
  step F_bar -> F_bar - grad(F_bar)/L. For a full mask that is an affine map,
  F_bar (I - G/L) + X H^T/L on the W side and (I - G/L) F_bar + W^T X/L on
  the H side, with G the Gram matrix of the frozen factor, so a step costs
  one O(mr^2) or O(nr^2) product and one sum. X H^T/L is formed C-ordered
  once per block, so each step's sum reads both operands contiguously (11
  us, not 34 us, at 2000 x 20). For a sparse mask it is the
  gradient at the cells in the workspace, divided by L and subtracted.

:func:`_misfit` forms the unweighted WH - x at the observed cells, and
:func:`_gradient` both block gradients, on a workspace's data. The public
kernels take (X, W, H, M) and build a workspace; :func:`objective` also
takes a solve's, and refuses one of another mask or other data.

:func:`objective` forms the residual: for a full mask it forms WH once and
subtracts and squares in that buffer, so each evaluation allocates one m x n
array and never writes X, W or H. A solve takes its objectives through
:meth:`Workspace.objective`, which on a full mask uses the Gram form
0.5||X||^2 - <W, XH^T> + 0.5<W^TW, HH^T> (:func:`gram_objective`) from ||X||^2
and the products the workspace holds, with no m x n array. Near an exact fit
the three terms cancel, and the stopping test and exact-recovery checks need
the small residual: the Gram value is used only when it is at least 1e-3 of
the sum of the terms' magnitudes, and once it is not, the solve keeps to the
residual form.

Sparse data is its observed values, kept by the mask in its cell order as
``M.values``. A kernel takes the data X as the m x n array or, for a sparse
mask, as those 1-D values (``M.observed(X)``); the shape is the mask's.

The two sparse gradients multiply the residual by a dense factor with
scipy's compiled loops, csc_matvecs on the W side and csr_matvecs on the H
side (the residual's CSR transpose has the CSC arrays), called as scipy's @
calls them, so the products are scipy's bit for bit. :func:`_sparsetools`
loads that one extension, scipy/sparse/_sparsetools, from its file when the
first sparse gradient is formed; neither scipy's nor scipy.sparse's
__init__ runs. Importing scipy.sparse loads 325 modules with scipy 1.17 and
numpy 2.4, taking 0.15-0.23 s and 22 MB of resident memory on a 2-core host;
the extension alone is one module. A scipy without the file raises
ImportError, with no fallback. Only :func:`masked_residual`, whose return
type is a scipy CSC matrix, imports scipy.sparse. Building, reading,
splitting or checking a mask, and any full-mask run, load no scipy module.
"""

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys

import numpy as np

_BLOCK_BYTES = 4 << 20  # size of the product buffer of one column block
_SWEEP_BYTES = 512 << 10  # size of one block of rows in a full-mask sweep


class ShapeError(ValueError):
    """Raised when matrix dimensions are incompatible."""


class NonFiniteDataError(ValueError, FloatingPointError):
    """Raised when X has a NaN or infinite observed entry: bad input, so a
    ValueError, and a numerical failure, so a FloatingPointError, which the
    CLI reports with exit code 1."""

    def __init__(self):
        super().__init__("X has a non-finite (NaN or inf) observed entry")


class DuplicateCellError(ValueError):
    """Raised when a mask lists a cell twice; row and col are 0-based."""

    def __init__(self, row, col):
        super().__init__(f"duplicate cell in mask at 0-based (row, col) = ({row}, {col})")
        self.row, self.col = row, col


class ObservationMask:
    """Per-entry observation weights in (0, 1]; unlisted cells are missing (weight 0).

    A full mask (all weights 1) is stored as a sentinel without materializing
    entries. A sparse mask keeps its cells in canonical column-major order
    (sorted by column, then row), whatever order they were given in, with
    their weights and ``values`` (one per cell) permuted with the cells, or
    None; cells given in that order are copied, with no sort. A mask never
    shares memory with the arrays it was given. What a solve derives from
    the cells is in its :class:`Workspace`.
    This class is the only place that tells the two cases apart: callers
    read data through :meth:`observed` and :meth:`row_extrema`.
    """

    def __init__(self, rows, cols, row_idx=None, col_idx=None, weights=None, values=None,
                 _full=False):
        try:
            if isinstance(rows, bool) or isinstance(cols, bool):
                raise TypeError
            rows, cols = operator.index(rows), operator.index(cols)
        except TypeError:
            raise ShapeError(f"mask shape must be integers, got {rows!r}x{cols!r}") from None
        if rows < 1 or cols < 1:
            raise ShapeError(f"mask shape must be positive, got {rows}x{cols}")
        self.rows, self.cols = rows, cols
        self._full = _full
        if _full:
            self.row_idx = self.col_idx = self.weights = self.values = None
            return
        row_idx = _cell_index(row_idx if row_idx is not None else [], "mask row")
        col_idx = _cell_index(col_idx if col_idx is not None else [], "mask col")
        weights = np.asarray(weights if weights is not None else [], dtype=np.float64)
        if not (row_idx.shape == col_idx.shape == weights.shape):
            raise ShapeError("mask index/weight arrays must have equal length")
        if values is not None and np.shape(values) != row_idx.shape:
            raise ShapeError(f"{np.size(values)} values for {row_idx.size} mask cells")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise ShapeError("mask row index out of range")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise ShapeError("mask col index out of range")
            if not np.all((weights > 0) & (weights <= 1)):
                raise ValueError("mask weights must lie in (0, 1]")
        key = col_idx * rows + row_idx
        if np.all(key[1:] > key[:-1]):  # canonical and unique already: copy, no sort
            self.row_idx, self.col_idx = row_idx.copy(), col_idx.copy()
            self.weights = weights.copy()
            self.values = None if values is None else np.array(values, np.float64)
        else:
            order = np.argsort(key)
            key = key[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                col, row = divmod(int(key[dup[0]]), rows)
                raise DuplicateCellError(row, col)
            self.row_idx = row_idx[order]
            self.col_idx = col_idx[order]
            self.weights = weights[order]
            self.values = None if values is None else np.asarray(values, np.float64)[order]
        # the kernels index through the cells unchecked: they stay as checked here
        self.row_idx.flags.writeable = self.col_idx.flags.writeable = False

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
        full mask (no copy), else a 1-D array in canonical order. For a sparse
        mask A may already be that 1-D array; it is returned as it is."""
        if not self._full and A.shape == (self.nnz,):
            return A
        if A.shape != (self.rows, self.cols):
            raise ShapeError(f"array shape {A.shape} != mask shape {self.rows}x{self.cols}")
        return A if self._full else A[self.row_idx, self.col_idx]

    def row_extrema(self, A):
        """Per-row (min, max) of A over observed cells; (inf, -inf) for a row
        with none."""
        return self.sweep(A, sums=False)[2:]

    def sweep(self, A, sums=True, extrema=True, total=True):
        """(sum, sum of squares, row minima, row maxima) of A over observed
        cells, with None for a part not asked for: the sums need sums, the
        plain sum also total; see :meth:`row_extrema`.

        A full mask reads A once, in blocks of rows of about _SWEEP_BYTES, and
        reduces each block while it is in cache. The extrema are those of
        A.min(axis=1) and A.max(axis=1) bit for bit; the sums add the blocks'
        sums (the squares' by einsum, which wakes no BLAS thread). A sparse
        mask's sum is np.mean's of its observed values, bit for bit. A NaN or
        inf entry makes the sum of squares non-finite.
        """
        vals = self.observed(A)
        total, sum_sq = 0.0 if sums and total else None, 0.0 if sums else None
        lo = hi = None
        with np.errstate(invalid="ignore"):  # an inf - inf or NaN entry gives NaN, quietly
            if self._full:
                m, n = vals.shape
                height = max(1, _SWEEP_BYTES // (vals.itemsize * n))
                if extrema:
                    lo, hi = np.empty(m, vals.dtype), np.empty(m, vals.dtype)
                for i0 in range(0, m, height):
                    rows = slice(i0, i0 + height)
                    block = vals[rows]
                    if extrema:
                        np.minimum.reduce(block, axis=1, out=lo[rows])
                        np.maximum.reduce(block, axis=1, out=hi[rows])
                    if total is not None:
                        total += float(np.sum(block))
                    if sums:
                        sum_sq += float(np.einsum("ij,ij->", block, block))
                return total, sum_sq, lo, hi
            if total is not None:
                total = float(np.sum(vals))
            if sums:
                sum_sq = float(np.einsum("i,i->", vals, vals))
            if extrema:
                lo, hi = np.full(self.rows, np.inf), np.full(self.rows, -np.inf)
                np.minimum.at(lo, self.row_idx, vals)
                np.maximum.at(hi, self.row_idx, vals)
            return total, sum_sq, lo, hi


class _BlockPlan:
    """Column blocks of the product WH at cells sorted by column.

    Columns are cut into blocks of b columns, with b chosen so that the b x m
    product buffer holds about _BLOCK_BYTES. Blocks without cells are left
    out. Each entry of ``blocks`` is (j0, j1, s0, s1): columns [j0, j1) and
    the slice [s0, s1) of their cells. ``local`` holds each cell's offset in
    its block's buffer, which stores (WH)(i, j) at (j - j0) * m + i.
    """

    def __init__(self, m, n, row_idx, col_idx):
        width = max(1, _BLOCK_BYTES // (8 * m))
        edges = np.minimum(np.arange(0, n + width, width), n)
        starts = np.searchsorted(col_idx, edges).tolist()
        edges = edges.tolist()
        self.blocks = [(j0, j1, s0, s1) for j0, j1, s0, s1
                       in zip(edges[:-1], edges[1:], starts[:-1], starts[1:]) if s1 > s0]
        self.local = col_idx % width * m + row_idx
        self.buffer_size = m * max((j1 - j0 for j0, j1, _, _ in self.blocks), default=0)


def _sampled_product(W, H, plan, out=None, buf=None):
    """(WH) at the plan's cells, in the plan's order, into out. One BLAS
    product per column block goes into buf, which is reused across blocks
    and may be reused across calls."""
    if out is None:
        out = np.empty(plan.local.size, np.result_type(W, H))
    if buf is None:
        buf = np.empty(plan.buffer_size, out.dtype)
    m, Wt = W.shape[0], W.T
    for j0, j1, s0, s1 in plan.blocks:
        np.matmul(H[:, j0:j1].T, Wt, out=buf[: (j1 - j0) * m].reshape(j1 - j0, m))
        # the offsets are in range by construction; "raise" would buffer out
        np.take(buf, plan.local[s0:s1], out=out[s0:s1], mode="clip")
    return out


def _cell_index(a, what):
    """a as a 1-D intp array, if it holds integers (or nothing); a float or
    bool index raises ShapeError rather than naming another cell."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise ShapeError(f"{what} indices must be a 1-D array, got shape {a.shape}")
    if a.size and a.dtype.kind not in "iu":
        raise ShapeError(f"{what} indices must be integers, got dtype {a.dtype}")
    return a.astype(np.intp, copy=False)


def product_at(W, H, row_idx, col_idx):
    """(WH)(i, j) evaluated only at the listed cells, in the order given."""
    rows, cols = _cell_index(row_idx, "cell row"), _cell_index(col_idx, "cell col")
    m, n = W.shape[0], H.shape[1]
    if rows.shape != cols.shape:
        raise ShapeError(f"cell index arrays must have equal length, got {rows.size} and "
                         f"{cols.size}")
    if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
        raise IndexError(f"cell index out of range for {m}x{n}")
    order = np.argsort(cols, kind="stable")  # no reordering for canonical cells
    vals = np.empty(rows.size, np.result_type(W, H))
    vals[order] = _sampled_product(W, H, _BlockPlan(m, n, rows[order], cols[order]))
    return vals


def _check_dims(W, H, M):
    if W.shape[1] != H.shape[0] or (W.shape[0], H.shape[1]) != (M.rows, M.cols):
        raise ShapeError(
            f"incompatible shapes W{W.shape}, H{H.shape}, mask {M.rows}x{M.cols}"
        )


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels: the extension scipy/sparse/_sparsetools,
    loaded from its file, so that neither scipy's nor scipy.sparse's __init__
    runs. CPython registers it as scipy.sparse._sparsetools, where a later
    import of scipy.sparse finds it. Raises ImportError without scipy or
    without the file."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse is already imported
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("a sparse mask needs scipy, which is not installed")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"a sparse mask needs scipy's _sparsetools extension, not found in {folder}")


class Workspace:
    """The data of one solve, which its kernels read, and what they keep
    between calls: the mask ``M``, the observed values ``x`` of X and
    ``sum_sq`` = ||x||^2 (None leaves a full mask to the residual objective).

    On every mask, the last products of each frozen factor F:
    ``product("gram", side, F)`` is HH^T on side "W" (F = H) and W^TW on side
    "H" (F = W), and ``product("cross", side, F)`` is xH^T or W^Tx. Each is
    held with the factor it was formed from and handed back only to a call
    with that same array (``is``, not equality); any other call forms a new
    one and holds it instead. That is sound because a solve never writes a
    factor or the data in place (see ``solver._block_step``), and a held
    array cannot be freed and its id reused.

    For a sparse mask, also what the kernels derive from the mask's cells:
    the block ``plan`` of the product, the CSC column pointers ``indptr``
    (the row indices are the mask's ``row_idx``), the residual values
    ``res`` in canonical order, the product's buffer ``buf`` and the squared
    weights ``w2`` (None when every weight is 1). Each gradient or objective
    overwrites res and buf, so the blocks of a solve share one; the mask,
    which callers share, keeps none. For a full mask these fields are None."""

    def __init__(self, X, M, sum_sq=None):
        self.M, self.x, self.sum_sq = M, M.observed(np.asarray(X)), sum_sq
        self._gram_form = M.is_full and sum_sq is not None
        self._held = {}  # (kind, side) -> (F, product)
        self.plan = self.indptr = self.res = self.buf = self.w2 = None
        if M.is_full:
            return
        self.plan = _BlockPlan(M.rows, M.cols, M.row_idx, M.col_idx)
        self.indptr = np.searchsorted(M.col_idx, np.arange(M.cols + 1))
        self.res = np.empty(M.nnz)
        self.buf = np.empty(self.plan.buffer_size)
        self.w2 = None if np.all(M.weights == 1.0) else M.weights**2

    def product(self, kind, side, F):
        """The held product of kind "gram" or "cross" on side of F, formed now
        if none is held for this array. Never write it."""
        held = self._held.get((kind, side))
        if held is None or held[0] is not F:
            held = self._held[kind, side] = (F, self._form(kind, side, F, self.x))
        return held[1]

    @staticmethod
    def _form(kind, side, F, x):
        if kind == "gram":
            return F @ F.T if side == "W" else F.T @ F
        # X is BLAS's right-hand operand on both sides (see the module docstring)
        return (F @ x.T).T if side == "W" else F.T @ x

    def objective(self, W, H):
        """The objective at (W, H).

        While :func:`gram_objective` accepts, and only on a full mask with
        sum_sq, it is the Gram form: after an H block from <W^TX, H>, with
        the W^TX that block formed, else from <W, XH^T>, forming the XH^T that
        the next W block takes. From the first time it declines, it is the
        module's :func:`objective`.
        """
        if self._gram_form:
            grams = self.product("gram", "H", W), self.product("gram", "W", H)
            held = self._held.get(("cross", "H"))
            if held is not None and held[0] is W:  # after an H block
                f = gram_objective(self.sum_sq, H, held[1], *grams)
            else:
                f = gram_objective(self.sum_sq, W, self.product("cross", "W", H), *grams)
            if f is not None:
                return f
            self._gram_form = False  # near an exact fit it would decline on every pass
        return objective(self.x, W, H, self.M, self)  # the module's residual objective


def _misfit(work, W, H):
    """WH - x at observed cells, unweighted, in an array the caller may
    overwrite: a new m x n array for a full mask, else work's residual
    values, in canonical order."""
    x = work.x
    if work.M.is_full:
        R = W @ H
        return np.subtract(R, x, out=R if R.dtype == np.result_type(x, R) else None)
    R = _sampled_product(W, H, work.plan, work.res, work.buf)
    return np.subtract(R, x, out=R)


def masked_residual(X, W, H, M):
    """M o (X - WH) at observed cells: a dense ndarray for a full mask, else a
    scipy.sparse CSC matrix over the residual values of a new
    :class:`Workspace`, on the cells in canonical column-major order. It is
    the one function here that imports scipy.sparse; no solve calls it."""
    _check_dims(W, H, M)
    work = Workspace(X, M)
    R = _misfit(work, W, H)
    R = np.subtract(0.0, R, out=R)  # X - WH; a zero stays +0, as x - WH gives it
    if work.w2 is not None:  # None for a full mask
        np.multiply(M.weights, R, out=R)
    if M.is_full:
        return R
    import scipy.sparse as sp  # the package's one import, for this return type

    return sp.csc_matrix((R, M.row_idx, work.indptr), shape=(M.rows, M.cols))


def objective(X, W, H, M, work=None):
    """0.5 * sum over observed cells of (M(i,j) * (X - WH)(i,j))^2.

    A sparse mask sums its residual vector in canonical column-major order,
    so the result does not depend on the order the cells were given in.
    The residual is squared in place, so a full mask needs one m x n buffer;
    a sparse mask computes it in work, a :class:`Workspace` of this X and M
    (a new one when None; one of another mask or data raises ValueError).
    """
    _check_dims(W, H, M)
    if work is None:
        work = Workspace(X, M)
    elif work.M is not M or (X is not work.x and not np.array_equal(
            M.observed(np.asarray(X)), work.x, equal_nan=True)):
        raise ValueError("objective: the workspace was built for another mask or other data")
    R = _misfit(work, W, H)  # squared, so the sign is moot
    if work.w2 is not None:
        R = np.multiply(M.weights, R, out=R)
    return 0.5 * float(np.sum(np.square(R, out=R), dtype=np.float64))


def gram_objective(sum_sq, F, cross, WtW, HHt):
    """The full-mask objective in the Gram form, 0.5 sum_sq - <F, cross> +
    0.5 <W^TW, HH^T>, from sum_sq = ||X||^2 and either F = W, cross = XH^T or
    F = H, cross = W^TX: <W, XH^T> = <W^TX, H>. No m x n array is formed.

    Returns None where the form is not trusted: a non-finite sum_sq, or a
    value that is not finite or is below 1e-3 T, T = 0.5 sum_sq + |<F, cross>|
    + 0.5 <W^TW, HH^T>. The value is within a few u T of the residual form
    (u = 2^-53), so an accepted one is within about 1e-12 of it, relative;
    near an exact fit the terms cancel, and the caller takes :func:`objective`
    instead.
    """
    if not math.isfinite(sum_sq):
        return None
    data, fit = 0.5 * sum_sq, float(np.vdot(F, cross))
    model = 0.5 * float(np.vdot(WtW, HHt))
    f = data - fit + model
    return f if math.isfinite(f) and f >= 1e-3 * (data + abs(fit) + model) else None


def _gradient(work, F, side):
    """The gradient in the free factor, F frozen, as :func:`step_map`'s sides
    name them; each call returns a new array. A full mask takes it as
    W(HH^T) - XH^T or (W^TW)H - W^TX from work's products, with no m x n
    residual; a sparse one multiplies the weighted residual in work's buffers."""
    if work.M.is_full:
        G, C = work.product("gram", side, F), work.product("cross", side, F)
        return (lambda W: W @ G - C) if side == "W" else (lambda H: G @ H - C)
    tools, m, n = _sparsetools(), work.M.rows, work.M.cols
    indptr, rows, res, w2 = work.indptr, work.M.row_idx, work.res, work.w2

    def residual(W, H):  # res = w2 * (WH - x) at the cells
        vals = _misfit(work, W, H)
        if w2 is not None:
            np.multiply(vals, w2, out=vals)

    # scipy's CSC @ dense and, with the CSC arrays read as the CSR transpose's,
    # CSR @ dense, as scipy.sparse._compressed._matmul_multivector calls them
    if side == "W":
        Ft, r = np.ascontiguousarray(F.T), F.shape[0]

        def grad(W):
            residual(W, F)
            out = np.zeros((m, r))
            tools.csc_matvecs(m, n, r, indptr, rows, res, Ft.ravel(), out.ravel())
            return out
    else:
        r = F.shape[1]

        def grad(H):
            residual(F, H)
            out = np.zeros((n, r))
            tools.csr_matvecs(n, m, r, indptr, rows, res, F.ravel(), out.ravel())
            return out.T

    return grad


def step_map(work, F, side, L):
    """The inner step of one block before its projection, F_bar ->
    F_bar - grad(F_bar)/L, on the data of work (a :class:`Workspace`), with
    the other factor F frozen and the step constant L fixed for the block.
    side="W": F is H and the map acts on W; side="H": F is W and the map
    acts on H.

    A full mask builds the affine map F_bar (I - G/L) + XH^T/L (side "W") or
    (I - G/L) F_bar + W^TX/L (side "H"), where G is the Gram matrix HH^T or
    W^TW; G and XH^T or W^TX come from work, which forms them unless it
    holds them for F. This is F_bar - grad(F_bar)/L reassociated: a step is
    one small product and one sum. A sparse mask computes the gradient at
    the cells in work, divides it by L in place and subtracts it from F_bar
    into the same array. Every call returns a new array and writes none of
    its arguments; a free factor of another shape raises ShapeError.
    """
    if side not in ("W", "H"):
        raise ValueError(f"side must be 'W' or 'H', got {side!r}")
    m, n = work.M.rows, work.M.cols
    if side == "W":
        fits, free_shape = F.shape[1] == n, (m, F.shape[0])
    else:
        fits, free_shape = F.shape[0] == m, (F.shape[1], n)
    if not fits:
        raise ShapeError(f"incompatible shapes: frozen factor {F.shape}, mask {m}x{n}")
    if work.M.is_full:
        G = work.product("gram", side, F)
        A = np.eye(len(G)) - G / L
        # XH^T is F-ordered; a C-ordered B keeps each step's sum contiguous
        B = np.divide(work.product("cross", side, F), L, order="C")
        times_A = (lambda W: W @ A) if side == "W" else (lambda H: A @ H)

        def step(F_bar):
            S = times_A(F_bar)
            S += B
            return S
    else:
        grad = _gradient(work, F, side)

        def step(F_bar):
            S = grad(F_bar)
            S /= L
            return np.subtract(F_bar, S, out=S)

    def checked(F_bar):
        if F_bar.shape != free_shape:
            raise ShapeError(f"free factor {side} must be {free_shape}, got {F_bar.shape}")
        return step(F_bar)

    return checked


def gradient_W(X, W, H, M):
    """Gradient of the masked objective w.r.t. W: -(MoMo(X-WH)) H^T, as
    :func:`_gradient` takes it: W(HH^T) - XH^T for a full mask."""
    _check_dims(W, H, M)
    return _gradient(Workspace(X, M), H, "W")(W)


def gradient_H(X, W, H, M):
    """Gradient of the masked objective w.r.t. H: -W^T (MoMo(X-WH)), as
    :func:`_gradient` takes it: (W^TW)H - W^TX for a full mask."""
    _check_dims(W, H, M)
    return _gradient(Workspace(X, M), W, "H")(H)


def spectral_norm(A):
    """Largest eigenvalue of a symmetric PSD matrix (0 for the zero matrix).

    Raises no LinAlgError on a matrix with an inf or NaN entry: where LAPACK
    does not converge on one, the value is NaN, so a solve reads an
    overflowed Gram matrix as a non-finite step constant."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"spectral_norm needs a square matrix, got {A.shape}")
    try:
        top = float(np.linalg.eigvalsh(A)[-1])
    except np.linalg.LinAlgError:
        if np.all(np.isfinite(A)):
            raise
        return math.nan
    return max(top, 0.0)
