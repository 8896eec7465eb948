import json

import numpy as np
import pytest

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

    def test_meta_has_config_hash(self, tmp_path):
        f, rep, cfg, var = self._solve_small()
        prefix = str(tmp_path / "out_")
        write_factors(prefix, f, rep, cfg, var, var.bounds)
        meta = json.load(open(prefix + "meta.json"))
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["variant"] == "bssmf" and meta["rank"] == 2
