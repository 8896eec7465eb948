"""Readers and writers: dense CSV, MatrixMarket coordinate, MovieLens ratings,
and factor/trace/metadata artifacts.

Indices are 1-based on disk for MatrixMarket and 0-based everywhere in memory;
the conversion happens only here.

Each reader parses the body of its file in one ``np.loadtxt`` call, numpy's
C tokenizer with one dtype per column, and checks the result with array
operations. Python reads only the first lines: the field count, a CSV header,
the MatrixMarket banner and size line. The cost is one pass over the file in
C and memory for one record of the parsed columns per line: on a 2-core Xeon,
``read_movielens`` takes 25–30 ms on a 100k-line ``u.data`` and 0.36–0.38 s
on a 1M-line ``ratings.dat``. When the bulk parse or a check rejects a file, the file is
read once more line by line, only to name the first bad line (or row, or
entry) in the error, as :class:`DataFormatError`.

Every reader decodes UTF-8 with universal newlines (LF, CRLF or CR); a file
that is not UTF-8 raises :class:`DataFormatError` naming the first line that
is not (or an earlier bad line). A blank line is an empty one; a line of
spaces is not blank. A number is a field that both numpy and Python read:
ASCII, no ``_`` digit separators, spaces around it allowed, and an integer
within int64.

- ``read_dense_csv``: an optional header (the first nonblank line, when one of
  its comma-separated cells is not a number), then rows of comma-separated
  finite numbers, every row as wide as the first. Blank lines are skipped.
- ``read_matrix_market``: the banner ``%%MatrixMarket matrix coordinate real
  general``, comment lines starting with ``%``, a size line ``m n nnz``, then
  exactly nnz entries ``i j value`` split on whitespace, with 1 <= i <= m,
  1 <= j <= n, a finite value and no repeated cell. Whitespace-only lines
  among the entries are skipped.
- ``read_movielens``: lines ``user item rating [timestamp]`` split on one tab
  (flavor ``tsv``, ml-100k ``u.data``) or on ``::`` (``dat``, ml-1m
  ``ratings.dat``). User and item ids are non-negative integers, so ``07`` and
  ``7`` are one id, keyed ``"7"`` in the maps. The rating is a finite number
  and the timestamp an integer, checked but not kept. Every nonblank line has
  the same field count, 3 or 4.
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


def _lines(path, skip=0):
    """(line number, line) for each line after the first ``skip``, without its
    newline, split as ``np.loadtxt`` splits a path (universal newlines).

    Raises DataFormatError at the first line, skipped or not, that is not
    UTF-8: undecodable bytes are kept as lone surrogates, which do not encode.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise DataFormatError(f"{path}: line {lineno} is not UTF-8") from None
            if lineno > skip:
                yield lineno, line.rstrip("\n")


def _head(path, count):
    """The first ``count`` nonblank lines as (line number, line), fewer if the
    file ends first."""
    head = []
    for lineno, line in _lines(path):
        if line:
            head.append((lineno, line))
            if len(head) == count:
                break
    return head


def _number(token, kind):
    """kind(token) (int or float), refusing what np.loadtxt refuses but Python
    reads: non-ASCII digits, ``_`` separators and integers outside int64."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a number: {token!r}")
    value = kind(token)
    if kind is int and not -2**63 <= value < 2**63:
        raise ValueError(f"{value} is outside int64")
    return value


def _cell_error(token, row, col):
    """The error for a bad CSV or MatrixMarket cell, or None for a finite number."""
    try:
        value = _number(token, float)
    except ValueError:
        return f"non-numeric cell at row {row}, column {col}: {token!r}"
    if not math.isfinite(value):
        return f"non-finite value at row {row}, column {col}"
    return None


def read_dense_csv(path):
    head = _head(path, 2)
    if not head:
        raise DataFormatError(f"{path}: empty file")
    (lineno, first), *rest = head
    try:
        [float(t) for t in first.split(",")]
        skip = lineno - 1
    except ValueError:  # a header
        if not rest:
            raise DataFormatError(f"{path}: no data rows after the header") from None
        skip = lineno
    try:
        A = np.loadtxt(path, delimiter=",", comments=None, skiprows=skip, ndmin=2,
                       encoding="utf-8")
        if not np.all(np.isfinite(A)):
            raise ValueError("non-finite value")
    except ValueError as err:
        raise DataFormatError(f"{path}: {_bad_csv_row(path, skip) or err}") from None
    return A


def _bad_csv_row(path, skip):
    """The error for the first bad cell, else for the first row whose width
    differs from row 1's (rows count nonblank lines after the header); None if
    every row is good."""
    width = ragged = None
    row = 0
    for _, line in _lines(path, skip):
        if not line:
            continue
        row += 1
        cells = line.split(",")
        for col, token in enumerate(cells, start=1):
            error = _cell_error(token, row, col)
            if error:
                return error
        width = width or len(cells)
        if ragged is None and len(cells) != width:
            ragged = f"ragged rows: row {row} has {len(cells)} cells, row 1 has {width}"
    return ragged


def write_dense_csv(path, A, header=None):
    """Write A one row per line, each value as %.17g (round-trips exactly)."""
    A = np.asarray(A, dtype=np.float64)
    line = ",".join(["%.17g"] * A.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(",".join(header) + "\n")
        f.writelines(line % tuple(row) for row in A.tolist())


MM_BANNER = "%%MatrixMarket matrix coordinate real general"
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("value", np.float64)])


def _mm_header(path):
    """(m, n, nnz, lines before the entries, whether a nonblank line follows)."""
    lines = (line for _, line in _lines(path))
    banner = next(lines, "").strip()
    if banner.lower() != MM_BANNER.lower():
        raise DataFormatError(
            f"{path}: unsupported MatrixMarket banner {banner!r} "
            f"(only 'coordinate real general' is handled)"
        )
    skip = 2
    line = next(lines, "")
    while line.startswith("%"):
        line = next(lines, "")
        skip += 1
    try:
        m, n, nnz = (int(t) for t in line.split())
    except ValueError:
        raise DataFormatError(f"{path}: bad size line {line!r}") from None
    return m, n, nnz, skip, any(rest.strip() for rest in lines)


def read_matrix_market(path):
    """Coordinate-real-general MatrixMarket file -> (dense matrix, mask)."""
    m, n, nnz, skip, has_entries = _mm_header(path)
    try:
        entries = (np.loadtxt(path, dtype=_MM_ENTRY, comments=None, skiprows=skip,
                              ndmin=1, encoding="utf-8")
                   if has_entries else np.zeros(0, _MM_ENTRY))
        i, j, vals = entries["i"], entries["j"], entries["value"]
        if not (entries.size == nnz and np.all((1 <= i) & (i <= m) & (1 <= j) & (j <= n))
                and np.all(np.isfinite(vals))):
            raise ValueError(f"{entries.size} entries for {nnz}, or a bad index or value")
    except ValueError as err:
        raise DataFormatError(f"{path}: {_bad_mm_entry(path, skip, m, n, nnz) or err}") from None
    rows, cols = i - 1, j - 1
    try:
        M = ObservationMask(m, n, rows, cols, np.ones(nnz))
    except DuplicateCellError as e:
        raise DataFormatError(f"{path}: duplicate entry ({e.row + 1}, {e.col + 1})") from None
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None
    X = np.zeros((m, n))
    X[rows, cols] = vals
    return X, M


def _bad_mm_entry(path, skip, m, n, nnz):
    """The error for the first bad entry (entries count nonblank lines after
    the size line), or for a count other than nnz; None if all are good."""
    k = 0
    for _, line in _lines(path, skip):
        parts = line.split()
        if not parts:
            continue
        k += 1
        if k > nnz:
            return f"entry line {k}: more entries than the {nnz} on the size line"
        if len(parts) != 3:
            return f"bad entry line {k}"
        try:
            i, j = _number(parts[0], int), _number(parts[1], int)
        except ValueError:
            return f"non-integer index on entry line {k}: {parts[0]} {parts[1]}"
        error = _cell_error(parts[2], i, j)
        if error:
            return error
        if not (1 <= i <= m and 1 <= j <= n):
            return f"index ({i}, {j}) outside {m}x{n}"
    if k < nnz:
        return f"bad entry line {k + 1}: the file ends after {k} of {nnz} entries"
    return None


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


_RATING_FIELDS = [("user", np.int64), ("item", np.int64), ("rating", np.float64),
                  ("timestamp", np.int64)]


def _ratings_dtype(width, flavor):
    """np.loadtxt columns for ``width`` fields. ``dat`` lines are split on
    ':' (numpy splits on one character), so each '::' leaves an empty field,
    read as a one-byte string that must hold only its zero padding."""
    fields = []
    for k, field in enumerate(_RATING_FIELDS[:width]):
        if flavor == "dat" and k:
            fields.append((f"sep{k}", "S1"))
        fields.append(field)
    return np.dtype(fields)


def _first_seen(raw):
    """Dense ids numbering the non-negative integers ``raw`` in order of first
    appearance, and the distinct values in that order.

    One O(n) pass over a table indexed by value. Values of 4n or more are
    first ranked by a sort, so the table never exceeds 4n entries.
    """
    n = raw.size
    distinct = None
    if raw.max() >= 4 * n:
        distinct, raw = np.unique(raw, return_inverse=True)
    positions = np.arange(n)
    table = np.full(raw.max() + 1, n, dtype=np.intp)
    np.minimum.at(table, raw, positions)  # value -> position of its first rating
    order = raw[table[raw] == positions]
    table[order] = np.arange(order.size)  # value -> dense id
    return table[raw], (order if distinct is None else distinct[order])


def read_movielens(path, flavor):
    """MovieLens ratings -> RatingsDataset with dense 0-based user/item ids.

    flavor 'dat' parses 'uid::iid::rating::ts' (ml-1m), 'tsv' parses
    tab-separated u.data rows (ml-100k); the module docstring gives the
    grammar.
    """
    if flavor not in ("dat", "tsv"):
        raise DataFormatError(f"unknown MovieLens flavor {flavor!r}")
    sep = "::" if flavor == "dat" else "\t"
    head = _head(path, 1)
    if not head:
        return RatingsDataset(0, 0, [], [], [], value_range=(1.0, 5.0))
    width = head[0][1].count(sep) + 1
    try:
        if width not in (3, 4):
            raise ValueError(f"{width} fields on the first line")
        r = np.loadtxt(path, dtype=_ratings_dtype(width, flavor), delimiter=sep[0],
                       comments=None, ndmin=1, encoding="utf-8")
        seps = [f for f in r.dtype.names if f.startswith("sep")]
        if (any(r[f].view(np.uint8).any() for f in seps) or r["user"].min() < 0
                or r["item"].min() < 0 or not np.all(np.isfinite(r["rating"]))):
            raise ValueError("a stray ':', a negative id or a non-finite rating")
    except ValueError as err:
        raise DataFormatError(f"{path}: {_bad_rating_line(path, sep) or err}") from None
    values = np.ascontiguousarray(r["rating"])
    out_of_range = np.count_nonzero((values < 1.0) | (values > 5.0))
    if out_of_range:
        warnings.warn(f"{path}: {out_of_range} ratings outside [1, 5] kept as-is")
    users, user_ids = _first_seen(r["user"])
    items, item_ids = _first_seen(r["item"])
    user_map = dict(zip(map(str, user_ids.tolist()), range(user_ids.size)))
    item_map = dict(zip(map(str, item_ids.tolist()), range(item_ids.size)))
    try:
        return RatingsDataset(len(user_map), len(item_map), users, items, values,
                              value_range=(1.0, 5.0), user_map=user_map, item_map=item_map)
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None


def _bad_rating_line(path, sep):
    """The error for the first line the ratings grammar rejects, or None."""
    width = None
    for lineno, line in _lines(path):
        if not line:
            continue
        parts = line.split(sep)
        width = width or len(parts)
        try:  # a field count, id, rating or timestamp the grammar rejects
            if len(parts) != width or width not in (3, 4):
                raise ValueError("field count")
            if _number(parts[0], int) < 0 or _number(parts[1], int) < 0:
                raise ValueError("negative id")
            rating = _number(parts[2], float)
            if width == 4:
                _number(parts[3], int)
        except ValueError:
            return f"malformed line {lineno}: {line!r}"
        if not math.isfinite(rating):
            return f"non-finite rating at line {lineno}"
    return None


def config_hash(config):
    payload = json.dumps(vars(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_factors(prefix, factors, report, config=None, variant=None, bounds=None):
    """Emit <prefix>W.csv, <prefix>H.csv, <prefix>trace.csv, <prefix>meta.json.

    A report made with record_trace off keeps only the first and last
    objectives and no step constants; its trace has the rows 0 and
    outer_iterations, with empty L_W and L_H cells.
    """
    write_dense_csv(f"{prefix}W.csv", factors.W)
    write_dense_csv(f"{prefix}H.csv", factors.H)
    steps = report.lipschitz_trace
    if len(steps) == len(report.objective_trace) - 1:  # one row per pass
        iterations = range(len(report.objective_trace))
    else:
        iterations, steps = [0, report.outer_iterations], []
    with open(f"{prefix}trace.csv", "w", encoding="utf-8") as f:
        f.write("iteration,objective,L_W,L_H\n")
        for k, obj in zip(iterations, report.objective_trace):
            cells = ",".join(f"{L:.17g}" for L in steps[k - 1]) if k and steps else ","
            f.write(f"{k},{obj:.17g},{cells}\n")
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
