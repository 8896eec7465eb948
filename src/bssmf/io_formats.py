"""Readers and writers: dense CSV, MatrixMarket coordinate, MovieLens ratings,
and factor/trace/metadata artifacts.

Indices are 1-based on disk for MatrixMarket and 0-based everywhere in memory;
the conversion happens only here.
"""

import hashlib
import json
import math
import warnings

import numpy as np

from .evaluation import RatingsDataset
from .matrixcore import DuplicateCellError, ObservationMask


class DataFormatError(ValueError):
    """Malformed input file."""


def _parse_cell(token, path, row, col):
    try:
        v = float(token)
    except ValueError:
        raise DataFormatError(
            f"{path}: non-numeric cell at row {row}, column {col}: {token!r}"
        ) from None
    if not math.isfinite(v):
        raise DataFormatError(f"{path}: non-finite value at row {row}, column {col}")
    return v


def read_dense_csv(path):
    rows = []
    header_skipped = False
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    first = lines[0].split(",")
    try:
        [float(t) for t in first]
    except ValueError:
        header_skipped = True
    for lineno, line in enumerate(lines[1 if header_skipped else 0 :], start=1):
        tokens = line.split(",")
        rows.append([_parse_cell(t, path, lineno, c + 1) for c, t in enumerate(tokens)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=np.float64)


def write_dense_csv(path, A, header=None):
    """Write A one row per line, each value as %.17g (round-trips exactly)."""
    A = np.asarray(A, dtype=np.float64)
    line = ",".join(["%.17g"] * A.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in A.tolist())


MM_BANNER = "%%MatrixMarket matrix coordinate real general"


def read_matrix_market(path):
    """Coordinate-real-general MatrixMarket file -> (dense matrix, mask)."""
    with open(path, "r", encoding="utf-8") as f:
        banner = f.readline().strip()
        if banner.lower() != MM_BANNER.lower():
            raise DataFormatError(
                f"{path}: unsupported MatrixMarket banner {banner!r} "
                f"(only 'coordinate real general' is handled)"
            )
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        try:
            m, n, nnz = (int(t) for t in line.split())
        except ValueError:
            raise DataFormatError(f"{path}: bad size line {line!r}") from None
        rows, cols, vals = [], [], []
        for k in range(nnz):
            parts = f.readline().split()
            if len(parts) != 3:
                raise DataFormatError(f"{path}: bad entry line {k + 1}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataFormatError(f"{path}: non-integer index on entry line {k + 1}: "
                                      f"{parts[0]} {parts[1]}") from None
            vals.append(_parse_cell(parts[2], path, i, j))
            if not (1 <= i <= m and 1 <= j <= n):
                raise DataFormatError(f"{path}: index ({i}, {j}) outside {m}x{n}")
            rows.append(i - 1)
            cols.append(j - 1)
    try:
        M = ObservationMask(m, n, rows, cols, np.ones(len(vals)))
    except DuplicateCellError as e:
        raise DataFormatError(f"{path}: duplicate entry ({e.row + 1}, {e.col + 1})") from None
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None
    X = np.zeros((m, n))
    X[rows, cols] = vals
    return X, M


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


def read_movielens(path, flavor):
    """MovieLens ratings -> RatingsDataset with dense 0-based user/item ids.

    flavor 'dat' parses 'uid::iid::rating::ts' (ml-1m), 'tsv' parses
    tab-separated u.data rows (ml-100k).
    """
    if flavor not in ("dat", "tsv"):
        raise DataFormatError(f"unknown MovieLens flavor {flavor!r}")
    sep = "::" if flavor == "dat" else "\t"
    uids, iids, values = [], [], []
    out_of_range = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            try:  # too few fields, a non-numeric rating or timestamp
                uid, iid, val = parts[0], parts[1], float(parts[2])
                if len(parts) > 3:
                    int(parts[3])  # the timestamp is checked, not kept
            except (IndexError, ValueError):
                raise DataFormatError(
                    f"{path}: malformed line {lineno}: {line!r}"
                ) from None
            if not math.isfinite(val):
                raise DataFormatError(f"{path}: non-finite rating at line {lineno}")
            if not (1.0 <= val <= 5.0):
                out_of_range += 1
            uids.append(uid)
            iids.append(iid)
            values.append(val)
    if out_of_range:
        warnings.warn(f"{path}: {out_of_range} ratings outside [1, 5] kept as-is")
    # dense ids in first-seen order
    user_map = {raw: k for k, raw in enumerate(dict.fromkeys(uids))}
    item_map = {raw: k for k, raw in enumerate(dict.fromkeys(iids))}
    try:
        return RatingsDataset(len(user_map), len(item_map), [user_map[r] for r in uids],
                              [item_map[r] for r in iids], values, value_range=(1.0, 5.0),
                              user_map=user_map, item_map=item_map)
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None


def config_hash(config):
    payload = json.dumps(vars(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_factors(prefix, factors, report, config=None, variant=None, bounds=None):
    """Emit <prefix>W.csv, <prefix>H.csv, <prefix>trace.csv, <prefix>meta.json."""
    write_dense_csv(f"{prefix}W.csv", factors.W)
    write_dense_csv(f"{prefix}H.csv", factors.H)
    with open(f"{prefix}trace.csv", "w", encoding="utf-8") as f:
        f.write("iteration,objective,L_W,L_H\n")
        for k, obj in enumerate(report.objective_trace):
            if k == 0:
                f.write(f"0,{obj:.17g},,\n")
            else:
                lw, lh = report.lipschitz_trace[k - 1]
                f.write(f"{k},{obj:.17g},{lw:.17g},{lh:.17g}\n")
    meta = {
        "outer_iterations": report.outer_iterations,
        "stop_reason": report.stop_reason,
        "wall_time_s": report.wall_time,
        "final_objective": report.objective_trace[-1],
    }
    if config is not None:
        meta.update(
            {
                "rank": config.rank,
                "seed": config.seed,
                "extrapolate": config.extrapolate,
                "center": config.center,
                "config_hash": config_hash(config),
            }
        )
    if variant is not None:
        meta["variant"] = variant.kind
    if bounds is not None and bounds.is_finite:
        meta["bounds_lower"] = bounds.lower.tolist()
        meta["bounds_upper"] = bounds.upper.tolist()
    with open(f"{prefix}meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
