import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssmf.io_formats import (
    DataFormatError,
    config_hash,
    read_dense_csv,
    read_matrix_market,
    read_movielens,
    write_dense_csv,
    write_factors,
    write_matrix_market,
)
from bssmf.matrixcore import ObservationMask
from bssmf.solver import SolverConfig


# values whose %.17g text is easy to get wrong: signed zero, NaN, infinities,
# a subnormal, a huge value and integer-valued entries
AWKWARD = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 5e300],
                    [3.0, -7.0, 1e16], [0.1, -2.2250738585072014e-309, 0.0]])


def fstring_csv(A, header=None):
    """Reference bytes: every value formatted on its own with an f-string."""
    lines = [",".join(header)] if header else []
    lines += [",".join(f"{v:.17g}" for v in row) for row in A]
    return "".join(line + "\n" for line in lines).encode()


def fstring_mtx(X, M):
    """Reference bytes: one f-string per observed entry; a full mask's entries
    in row-major order, a sparse mask's in its canonical order."""
    m, n = X.shape
    rows, cols = (np.divmod(np.arange(m * n), n) if M.is_full
                  else (M.row_idx, M.col_idx))
    body = "".join(f"{i + 1} {j + 1} {X[i, j]:.17g}\n" for i, j in zip(rows, cols))
    return f"%%MatrixMarket matrix coordinate real general\n{m} {n} {len(rows)}\n{body}".encode()


class TestWriterBytes:
    @pytest.mark.parametrize("header", [None, ["a", "b", "c"]])
    def test_dense_csv_matches_per_value_formatting(self, tmp_path, header):
        p = tmp_path / "a.csv"
        write_dense_csv(p, AWKWARD, header=header)
        assert p.read_bytes() == fstring_csv(AWKWARD, header)

    def test_dense_csv_random_and_empty(self, tmp_path):
        A = np.random.default_rng(5).standard_normal((7, 3)) * 10.0 ** np.arange(-150, 150, 100)
        for B in (A, A[:0], np.zeros((2, 0))):
            p = tmp_path / "b.csv"
            write_dense_csv(p, B)
            assert p.read_bytes() == fstring_csv(B)

    @pytest.mark.parametrize("full", [True, False])
    def test_matrix_market_matches_per_entry_formatting(self, tmp_path, full):
        m, n = AWKWARD.shape
        M = (ObservationMask.full(m, n) if full
             else ObservationMask(m, n, [3, 0, 1, 2, 1, 0], [2, 0, 1, 0, 0, 2], np.ones(6)))
        p = tmp_path / "a.mtx"
        write_matrix_market(p, AWKWARD, M)
        assert p.read_bytes() == fstring_mtx(AWKWARD, M)


class TestDenseCSV:
    def test_basic(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(read_dense_csv(p), [[1, 2], [3, 4]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1,2\n")
        assert np.array_equal(read_dense_csv(p), [[1, 2]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 4))
        p = tmp_path / "rt.csv"
        write_dense_csv(p, A)
        assert np.array_equal(read_dense_csv(p), A)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError, match="ragged"):
            read_dense_csv(p)

    def test_non_numeric_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,x\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            read_dense_csv(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,nan\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            read_dense_csv(p)

    @pytest.mark.parametrize("text, row", [("1,2\n3\n", 2), ("1,2\n3,4\n5,6,7\n8\n", 3),
                                           ("a,b\n1,2\n\n3,4,5\n", 2)])
    def test_ragged_row_named(self, tmp_path, text, row):
        # rows count nonblank lines after the header, 1-based
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=rf"ragged rows: row {row} has \d cells, row 1"):
            read_dense_csv(p)

    def test_cell_error_outranks_ragged_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n4,x\n")
        with pytest.raises(DataFormatError, match="non-numeric cell at row 3, column 2"):
            read_dense_csv(p)

    def test_line_of_spaces_is_a_row(self, tmp_path):
        # a blank line is an empty one; a line of spaces is a row with one empty cell
        p = tmp_path / "a.csv"
        p.write_text("1,2\n\n3,4\n")
        assert np.array_equal(read_dense_csv(p), [[1, 2], [3, 4]])
        p.write_text("1,2\n  \n3,4\n")
        with pytest.raises(DataFormatError, match="non-numeric cell at row 2, column 1"):
            read_dense_csv(p)

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("\n\n", "empty file"),
                                               ("a,b\n\n", "no data rows after the header")])
    def test_no_rows(self, tmp_path, text, message):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            read_dense_csv(p)

    @settings(max_examples=50, deadline=None)
    @given(A=st.integers(1, 6).flatmap(lambda n: st.lists(
               st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
               min_size=1, max_size=6)),
           header=st.booleans())
    def test_round_trip_any_finite(self, tmp_path_factory, A, header):
        A = np.array(A)
        p = tmp_path_factory.mktemp("csv") / "a.csv"
        write_dense_csv(p, A, header=[f"c{k}" for k in range(A.shape[1])] if header else None)
        B = read_dense_csv(p)
        assert B.dtype == np.float64 and np.array_equal(B, A)


class TestMatrixMarket:
    def test_single_entry(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 5.0\n")
        X, M = read_matrix_market(p)
        assert X[0, 0] == 5.0 and M.nnz == 1

    def test_symmetric_rejected(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 5.0\n")
        with pytest.raises(DataFormatError, match="banner"):
            read_matrix_market(p)

    def test_round_trip(self, tmp_path):
        X = np.zeros((3, 4))
        M = ObservationMask(3, 4, [0, 2, 1], [1, 3, 0], np.ones(3))
        X[0, 1], X[2, 3], X[1, 0] = 2.5, -1.25, 7.0
        p = tmp_path / "rt.mtx"
        write_matrix_market(p, X, M)
        X2, M2 = read_matrix_market(p)
        assert np.array_equal(X, X2)
        assert set(zip(M2.row_idx, M2.col_idx)) == {(0, 1), (2, 3), (1, 0)}

    def test_out_of_bounds_index(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n")
        with pytest.raises(DataFormatError, match="outside"):
            read_matrix_market(p)

    def test_duplicate_entry(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 3 3\n2 3 5.0\n1 1 1.0\n2 3 2.0\n"
        )
        # named by the file's own 1-based indices, like the other reader errors
        with pytest.raises(DataFormatError, match=r"duplicate entry \(2, 3\)"):
            read_matrix_market(p)

    @pytest.mark.parametrize("entry", ["1.5 1 3.0", "1 x 3.0"])
    def test_non_integer_index(self, tmp_path, entry):
        p = tmp_path / "a.mtx"
        p.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n{entry}\n")
        with pytest.raises(DataFormatError, match="non-integer index on entry line 2"):
            read_matrix_market(p)

    @pytest.mark.parametrize("body, message", [
        ("2 2 2\n1 1 5.0\n", r"bad entry line 2: the file ends after 1 of 2"),
        ("2 2 1\n1 1 5.0\n2 2 3.0\n", r"entry line 2: more entries than the 1"),
        ("2 2 2\n1 1 5.0\n2 2\n", r"bad entry line 2$"),
        ("2 2 2\n1 1 5.0\n2 2 x\n", r"non-numeric cell at row 2, column 2: 'x'"),
        ("2 2 2\n1 1 inf\n2 2 1\n", r"non-finite value at row 1, column 1"),
        ("2 2 2\n1 1 1\n2 1_0 1\n", r"non-integer index on entry line 2: 2 1_0"),
    ])
    def test_bad_entry_named(self, tmp_path, body, message):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        with pytest.raises(DataFormatError, match=message):
            read_matrix_market(p)

    def test_comments_and_blank_entry_lines(self, tmp_path):
        # comment lines before the size line; whitespace-only lines among the
        # entries are skipped, as in the reference MatrixMarket reader
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n% a\n%\n"
                     "2 2 2\n 1  2 4.0\n\n  \n2\t1\t-1e-3\n\n")
        X, M = read_matrix_market(p)
        assert np.array_equal(X, [[0, 4], [-1e-3, 0]]) and M.nnz == 2

    def test_no_entries(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n\n")
        X, M = read_matrix_market(p)
        assert np.array_equal(X, np.zeros((2, 3))) and M.nnz == 0

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 6), full=st.booleans())
    def test_round_trip_any_finite(self, tmp_path_factory, data, m, n, full):
        X = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=m * n, max_size=m * n))).reshape(m, n)
        if full:
            M = ObservationMask.full(m, n)
        else:
            flat = np.array(data.draw(st.lists(st.integers(0, m * n - 1), unique=True,
                                               max_size=m * n)), dtype=np.intp)
            M = ObservationMask(m, n, flat // n, flat % n, np.ones(flat.size))
            X[~np.isin(np.arange(m * n), flat).reshape(m, n)] = 0.0
        p = tmp_path_factory.mktemp("mtx") / "a.mtx"
        write_matrix_market(p, X, M)
        X2, M2 = read_matrix_market(p)
        assert X2.dtype == np.float64 and np.array_equal(X2, X)
        rows, cols = ((np.repeat(np.arange(m), n), np.tile(np.arange(n), m)) if full
                      else (M.row_idx, M.col_idx))
        assert set(zip(M2.row_idx.tolist(), M2.col_idx.tolist())) == set(
            zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()))

    def test_entries_in_file_order_scattered(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 3 3\n2 3 6.0\n1 2 4.0\n2 1 5.0\n")
        X, M = read_matrix_market(p)
        assert np.array_equal(X, [[0, 4, 0], [5, 0, 6]])
        assert np.array_equal(M.row_idx, [1, 0, 1]) and np.array_equal(M.col_idx, [0, 1, 2])


class TestMovieLens:
    def test_dat_line(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::10::5::978300760\n")
        ds = read_movielens(p, "dat")
        assert ds.users.tolist() == [0] and ds.items.tolist() == [0]
        assert ds.values.tolist() == [5.0]
        assert ds.num_users == 1 and ds.num_items == 1

    def test_tsv(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t10\t5\t978300760\n2\t10\t3\t978300761\n")
        ds = read_movielens(p, "tsv")
        assert ds.num_users == 2 and ds.num_items == 1

    def test_reindexing_dense(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("7::100::5::1\n9::100::3::2\n7::200::2::3\n")
        ds = read_movielens(p, "dat")
        assert ds.users.tolist() == [0, 1, 0] and ds.items.tolist() == [0, 0, 1]
        assert ds.user_map == {"7": 0, "9": 1} and ds.item_map == {"100": 0, "200": 1}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::10::5::1\ngarbage\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_movielens(p, "dat")

    def test_out_of_range_warns(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("1::10::9::1\n")
        with pytest.warns(UserWarning, match="outside"):
            ds = read_movielens(p, "dat")
        assert ds.values.tolist() == [9.0]

    def test_non_integer_timestamp_located(self, tmp_path):
        p = tmp_path / "u.data"
        p.write_text("1\t10\t5\t978300760\n1\t11\t5\tabc\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_movielens(p, "tsv")

    def test_repeated_pair_rejected(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("7::100::5::1\n9::100::3::2\n7::100::2::3\n")
        with pytest.raises(DataFormatError, match="duplicate rating for user 7, item 100"):
            read_movielens(p, "dat")


def oracle_movielens(path, sep):
    """Per-line reference for well-formed ratings files: universal newlines,
    empty lines skipped, ids read as integers and keyed by str(id) in
    first-seen order."""
    users, items, values, user_map, item_map = [], [], [], {}, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            u, i, v = line.split(sep)[:3]
            users.append(user_map.setdefault(str(int(u)), len(user_map)))
            items.append(item_map.setdefault(str(int(i)), len(item_map)))
            values.append(float(v))
    return (np.array(users, dtype=np.intp), np.array(items, dtype=np.intp),
            np.array(values, dtype=np.float64), user_map, item_map)


SEPARATORS = {"tsv": "\t", "dat": "::"}


@st.composite
def ratings_files(draw):
    """Well-formed ratings text: random ids (dense, or sparse past the id table's
    4n bound), padded id spellings, 3 or 4 fields, LF, CRLF or CR endings,
    blank lines and an optional final newline."""
    flavor = draw(st.sampled_from(sorted(SEPARATORS)))
    top = draw(st.sampled_from([3, 50, 10**12]))
    pairs = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                          min_size=1, max_size=40, unique=True))
    width = draw(st.sampled_from([3, 4]))
    spell = st.sampled_from(["{}", "0{}", "+{}", " {} "])
    lines = []
    for u, i in pairs:
        lines += [""] * draw(st.integers(0, 2) if draw(st.booleans()) else st.just(0))
        fields = [draw(spell).format(u), draw(spell).format(i),
                  draw(st.sampled_from(["1", "2", "3", "4", "5", "3.5", "4.25", "1e0", " 2"]))]
        if width == 4:
            fields.append(str(draw(st.integers(-2**63, 2**63 - 1))))
        lines.append(SEPARATORS[flavor].join(fields))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return flavor, text


BASE_RATINGS = [("1", "10", "5", "1"), ("2", "10", "3", "2"), ("1", "20", "4", "3"),
                ("3", "30", "2", "4"), ("2", "40", "1", "5")]
BAD_RATINGS = {
    "rating": ("4", "50", "x", "6"),
    "non-finite rating": ("4", "50", "nan", "6"),
    "timestamp": ("4", "50", "5", "t6"),
    "user id": ("u4", "50", "5", "6"),
    "negative item id": ("4", "-50", "5", "6"),
    "fractional user id": ("4.0", "50", "5", "6"),
    "short line": ("4", "50"),
    "fifth field": ("4", "50", "5", "6", "7"),
    "mixed field count": ("4", "50", "5"),
}


class TestMovieLensBulk:
    @settings(max_examples=150, deadline=None)
    @given(ratings_files())
    def test_equals_per_line_oracle(self, tmp_path_factory, case):
        flavor, text = case
        p = tmp_path_factory.mktemp("ml") / "ratings"
        p.write_bytes(text.encode())
        ds = read_movielens(p, flavor)
        users, items, values, user_map, item_map = oracle_movielens(p, SEPARATORS[flavor])
        for got, want in ((ds.users, users), (ds.items, items), (ds.values, values)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert list(ds.user_map.items()) == list(user_map.items())
        assert list(ds.item_map.items()) == list(item_map.items())
        assert (ds.num_users, ds.num_items) == (len(user_map), len(item_map))

    @pytest.mark.parametrize("flavor", sorted(SEPARATORS))
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("bad", sorted(BAD_RATINGS))
    def test_bad_line_named(self, tmp_path, flavor, where, bad):
        rows = list(BASE_RATINGS)
        rows[where] = BAD_RATINGS[bad]
        p = tmp_path / "ratings"
        p.write_text("".join(SEPARATORS[flavor].join(r) + "\n" for r in rows))
        # the first nonblank line sets the field count, so a 3-field first
        # line makes line 2 the first that differs
        line = 2 if bad == "mixed field count" and where == 0 else where + 1
        kind = "non-finite rating at" if bad == "non-finite rating" else "malformed"
        with pytest.raises(DataFormatError, match=rf"{kind} line {line}\b"):
            read_movielens(p, flavor)

    @pytest.mark.parametrize("line", ["1:x:10::5::1", "1::10:5::1", "1:10::5::1",
                                      "1:::10::5::1", "1::10::5::1::", "1: :10::5::1"])
    def test_stray_colon_rejected(self, tmp_path, line):
        p = tmp_path / "ratings.dat"
        p.write_text(f"2::10::5::1\n{line}\n3::10::4::2\n")
        with pytest.raises(DataFormatError, match="malformed line 2"):
            read_movielens(p, "dat")

    def test_ids_are_integers(self, tmp_path):
        # ids are integers: "07", "7" and "+7" name one user, keyed "7"
        p = tmp_path / "ratings.dat"
        p.write_text("07::100::5::1\n+7::200::3::2\n9::100::4::3\n")
        ds = read_movielens(p, "dat")
        assert ds.users.tolist() == [0, 0, 1] and ds.items.tolist() == [0, 1, 0]
        assert ds.user_map == {"7": 0, "9": 1} and ds.item_map == {"100": 0, "200": 1}

    @pytest.mark.parametrize("text, line", [
        ("1\t10\t5\t1\t99\n", 1),       # a fifth field
        ("1\t10\t5\n2\t10\t4\t7\n", 2),  # a field count that changes
        ("1\t10\t5\n  \n", 2),            # a line of spaces is not blank
        ("1\t10\t5\t\n", 1),              # a trailing tab adds an empty field
    ])
    def test_narrowed_grammar(self, tmp_path, text, line):
        p = tmp_path / "u.data"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"malformed line {line}"):
            read_movielens(p, "tsv")

    @pytest.mark.parametrize("flavor", sorted(SEPARATORS))
    @pytest.mark.parametrize("text", ["", "\n\n", "\r\n"])
    def test_empty_file(self, tmp_path, flavor, text):
        p = tmp_path / "ratings"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = read_movielens(p, flavor)
        assert ds.users.size == ds.items.size == ds.values.size == 0
        assert (ds.num_users, ds.num_items, ds.user_map, ds.item_map) == (0, 0, {}, {})


class TestNonUtf8:
    """A file that is not UTF-8 raises DataFormatError naming the file and the
    first line that is not, whether the reader's own head or the bulk parse
    meets it first."""

    @staticmethod
    def _raises(path, line):
        return pytest.raises(DataFormatError,
                             match=re.escape(f"{path}: line {line} is not UTF-8"))

    @pytest.mark.parametrize("body, line", [
        (b"\xfe,2\n3,4\n", 1),
        (b"1,2,3\n4,\xff,6\n7,8,9\n", 2),
        (b"a,b,c\n1,2,3\n\xff,5,6\n", 3),
        (b"1,2,3\n" * 3 + b"4,5,6\xff\n", 4),
    ])
    def test_dense_csv(self, tmp_path, body, line):
        p = tmp_path / "X.csv"
        p.write_bytes(body)
        with self._raises(p, line):
            read_dense_csv(p)

    @pytest.mark.parametrize("body, line", [
        (b"%%MatrixMarket matrix coordinate real general\xff\n1 1 1\n1 1 2\n", 1),
        (b"%%MatrixMarket matrix coordinate real general\n% \xe9t\xe9\n1 1 1\n1 1 2\n", 2),
        (b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2\n2 2 \xff\n", 4),
    ])
    def test_matrix_market(self, tmp_path, body, line):
        p = tmp_path / "X.mtx"
        p.write_bytes(body)
        with self._raises(p, line):
            read_matrix_market(p)

    @pytest.mark.parametrize("flavor, sep", [("tsv", b"\t"), ("dat", b"::")])
    @pytest.mark.parametrize("bad", [1, 2, 3])
    def test_movielens(self, tmp_path, flavor, sep, bad):
        rows = [sep.join([b"%d" % u, b"10", b"4", b"0"]) for u in (1, 2, 3)]
        rows[bad - 1] = rows[bad - 1].replace(b"4", b"\xff")
        p = tmp_path / "ratings"
        p.write_bytes(b"\n".join(rows) + b"\n")
        with self._raises(p, bad):
            read_movielens(p, flavor)

    def test_utf8_text_is_read(self, tmp_path):
        p = tmp_path / "X.csv"
        p.write_text("\u00e9t\u00e9,b\n1,2\n", encoding="utf-8")
        assert np.array_equal(read_dense_csv(p), [[1.0, 2.0]])


class TestWriteFactors:
    def _solve_small(self):
        from bssmf.projections import BoundsVector
        from bssmf.solver import ModelVariant, solve
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(5, 4))
        var = ModelVariant.bssmf(BoundsVector.constant(5, 0, 1))
        cfg = SolverConfig(rank=2, max_outer=6, rel_tol=0.0, seed=0)
        f, rep = solve(X, ObservationMask.full(5, 4), var, cfg)
        return f, rep, cfg, var

    def test_round_trip_w(self, tmp_path):
        f, rep, cfg, var = self._solve_small()
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        assert np.array_equal(read_dense_csv(prefix + "W.csv"), f.W)
        assert np.array_equal(read_dense_csv(prefix + "H.csv"), f.H)

    def test_trace_length(self, tmp_path):
        f, rep, cfg, var = self._solve_small()
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        lines = open(prefix + "trace.csv").read().strip().splitlines()
        assert len(lines) - 1 == rep.outer_iterations + 1

    def test_recorded_trace_rows(self, tmp_path):
        f, rep, cfg, var = self._solve_small()
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        rows = [f"0,{rep.objective_trace[0]:.17g},,"]
        rows += [f"{k},{obj:.17g},{lw:.17g},{lh:.17g}" for k, (obj, (lw, lh))
                 in enumerate(zip(rep.objective_trace[1:], rep.lipschitz_trace), start=1)]
        expected = "iteration,objective,L_W,L_H\n" + "".join(r + "\n" for r in rows)
        assert open(prefix + "trace.csv").read() == expected

    def test_trace_without_record(self, tmp_path):
        """record_trace off keeps two objectives and no step constants."""
        from bssmf.projections import BoundsVector
        from bssmf.solver import ModelVariant, solve
        X = np.random.default_rng(2).uniform(size=(8, 6))
        var = ModelVariant.bssmf(BoundsVector.constant(8, 0, 1))
        cfg = SolverConfig(rank=2, max_outer=5, rel_tol=0.0, seed=0, record_trace=False)
        f, rep = solve(X, ObservationMask.full(8, 6), var, cfg)
        assert len(rep.objective_trace) == 2 and rep.lipschitz_trace == []
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        first, last = rep.objective_trace
        assert open(prefix + "trace.csv").read() == (
            f"iteration,objective,L_W,L_H\n0,{first:.17g},,\n5,{last:.17g},,\n")
        assert json.load(open(prefix + "meta.json"))["final_objective"] == last

    def test_meta_has_config_hash(self, tmp_path):
        f, rep, cfg, var = self._solve_small()
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        meta = json.load(open(prefix + "meta.json"))
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["variant"] == "bssmf" and meta["rank"] == 2
