"""Traced-run instrumentation, installed only for ``--trace 1``.

:class:`Tracer` wraps every public function of the library modules below and
patches each module attribute that refers to it, so the wrapper is what
callers resolve: ``bssmf.solver.project_box`` as well as
``bssmf.projections.project_box``. Each call records a span (name, start,
end, parent span, iteration id) in memory; :meth:`Tracer.layers` aggregates
the spans into per-layer ``calls``, ``busy_s`` and ``self_s``.

A few kernels also get computed work counts from their argument shapes
(see :func:`kernel_work`). They are estimates derived from shapes, rank and
nnz, not measurements.
"""

import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("matrixcore", "projections", "solver", "evaluation",
           "identifiability", "preprocessing", "io_formats")

_F = 8  # bytes per float64 / intp
KERNELS = ("matrixcore.product_at", "matrixcore.masked_residual",
           "matrixcore.gradient_W", "matrixcore.gradient_H")


def kernel_work(name, args):
    """Computed (flop, bytes, cells) of one call, or None for other layers.

    Dense (full-mask) residual: R = X - WH costs 2mnr + mn flops and streams
    X, W, H in and R out. Sparse: the product at nnz cells gathers one row
    of W and one column of H per cell (2r floats), then the CSR residual is
    built and multiplied. A gradient adds one more product with the residual.
    """
    if name == "matrixcore.product_at":
        W, _, row_idx, _ = args[:4]
        cells, r = len(row_idx), W.shape[1]
        return 2.0 * cells * r, _F * cells * (2 * r + 3), cells
    if name not in KERNELS:
        return None
    X, W, H, M = args[:4]
    (m, n), r = X.shape, W.shape[1]
    grad = name != "matrixcore.masked_residual"
    if M.is_full:
        flop = 2.0 * m * n * r + m * n
        traffic = _F * (2 * m * n + m * r + r * n)
        if grad:
            flop += 2.0 * m * n * r
            traffic += _F * (m * n + r * max(m, n))
        return flop, traffic, m * n
    nnz = M.nnz
    flop = 2.0 * nnz * r + 3 * nnz
    traffic = _F * nnz * (2 * r + 8)  # gathers, values, weights, indices, CSR build
    if grad:
        flop += 2.0 * nnz * r
        traffic += _F * (nnz * (r + 2) + r * max(m, n))
    return flop, traffic, nnz


class Tracer:
    """In-memory span recorder and function patcher for one traced run."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.spans = []  # [name_id, start, end, parent, iteration, nested]
        self._stack = []
        self._active = defaultdict(int)
        self.iteration = -1
        self.work = {k: np.zeros(3) for k in KERNELS}  # name -> (flop, bytes, cells)
        self._patches = []

    def _wrap(self, name, fn):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        work = self.work

        def traced(*args, **kwargs):
            counted = kernel_work(name, args)
            if counted is not None:
                work[name] += counted
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.iteration,
                    active[nid] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[nid] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[nid] -= 1

        return traced

    def install(self):
        """Patch every reference to a public library function; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"bssmf.{m}") for m in MODULES]
        holders = [importlib.import_module("bssmf")] + modules
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    def arrays(self):
        """Spans as columns: name id, start, end, parent, iteration, nested flag."""
        nid, start, end, parent, it, nested = np.array(self.spans, dtype=np.float64).T
        return (nid.astype(np.int64), start, end, parent.astype(np.int64),
                it.astype(np.int64), nested.astype(bool))

    def layers(self):
        """name -> {calls, busy_s, self_s} over all recorded spans.

        busy_s counts only the outermost span of a name (recursive calls are
        not counted twice); self_s is each span's duration minus the time its
        child spans cover.
        """
        nid, start, end, parent, _, nested = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid[~nested], weights=dur[~nested], minlength=k)
        self_t = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "self_s": float(self_t[i])}
                for i, name in enumerate(self.names)}

    def save(self, path, t0):
        """Write the spans (times relative to ``t0``) and the name table to ``path`` (.npz)."""
        nid, start, end, parent, it, nested = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid,
                            start=start - t0, end=end - t0, parent=parent,
                            iteration=it, nested=nested)
