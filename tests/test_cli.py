import json

import numpy as np
import pytest

from bssmf import cli
from bssmf.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SSC_FAIL,
    main,
)
from bssmf.io_formats import read_dense_csv, write_dense_csv
from bssmf.matrixcore import ObservationMask, objective

from conftest import EXAMPLE_H, EXAMPLE_W, EXAMPLE_X


@pytest.fixture
def example_csv(tmp_path):
    p = tmp_path / "X.csv"
    write_dense_csv(p, EXAMPLE_X / 4.0)
    return str(p)


class TestFactorize:
    def test_example_recovery(self, tmp_path, example_csv):
        prefix = str(tmp_path / "fac_")
        code = main([
            "factorize", "--input", example_csv, "--rank", "3",
            "--bounds", "0:3", "--seed-sweep", "10", "--outer", "400",
            "--inner-w", "10", "--inner-h", "10", "--rel-tol", "1e-14",
            "--out-prefix", prefix,
        ])
        assert code == EXIT_OK
        W = read_dense_csv(prefix + "W.csv")
        H = read_dense_csv(prefix + "H.csv")
        X = EXAMPLE_X / 4.0
        assert np.linalg.norm(X - W @ H) / np.linalg.norm(X) < 1e-6

    def test_monotone_bcd_trace(self, tmp_path, example_csv):
        prefix = str(tmp_path / "bcd_")
        code = main([
            "factorize", "--input", example_csv, "--rank", "2",
            "--variant", "mf", "--no-extrapolation", "--outer", "30",
            "--rel-tol", "0", "--out-prefix", prefix,
        ])
        assert code == EXIT_OK
        rows = open(prefix + "trace.csv").read().strip().splitlines()[1:]
        objs = [float(r.split(",")[1]) for r in rows]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-12 * (1 + a)

    def test_config_error_exit(self, example_csv):
        assert main([
            "factorize", "--input", example_csv, "--rank", "99",
            "--variant", "mf",
        ]) == EXIT_CONFIG

    def test_nonfinite_observed_entry_exit(self, monkeypatch, capsys):
        X = EXAMPLE_X / 4.0
        X[2, 3] = np.nan
        monkeypatch.setattr(cli, "_load_matrix",
                            lambda path: (X, cli.ObservationMask.full(*X.shape)))
        assert main([
            "factorize", "--input", "X.csv", "--rank", "2", "--bounds", "0:3",
        ]) == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["0:3", "infer"])
    def test_nonfinite_entry_exit_with_any_bounds(self, monkeypatch, capsys, bounds):
        X = EXAMPLE_X / 4.0
        X[2, 3] = np.nan
        monkeypatch.setattr(cli, "_load_matrix",
                            lambda path: (X, cli.ObservationMask.full(*X.shape)))
        assert main(["factorize", "--input", "X.csv", "--rank", "2",
                     "--bounds", bounds]) == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err

    def test_overflow_exits_diverged(self, tmp_path, capsys):
        # finite entries whose squares overflow stop the solve as diverged
        p = tmp_path / "X.csv"
        write_dense_csv(p, np.full((4, 3), 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["factorize", "--input", str(p), "--rank", "2",
                         "--bounds", "0:2e200", "--out-prefix", str(tmp_path / "o_")])
        assert code == EXIT_NUMERICAL
        assert "error: solve diverged" in capsys.readouterr().err

    def test_malformed_bounds_exit(self, example_csv, capsys):
        assert main(["factorize", "--input", example_csv, "--rank", "2",
                     "--bounds", "0:abc"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bounds_file_row_count_exit(self, tmp_path, example_csv, capsys):
        p = tmp_path / "bounds.csv"
        write_dense_csv(p, np.array([[0.0, 3.0]] * (EXAMPLE_X.shape[0] - 1)))
        assert main(["factorize", "--input", example_csv, "--rank", "2",
                     "--bounds", str(p)]) == EXIT_CONFIG
        assert "rows of two columns" in capsys.readouterr().err

    def test_missing_bounds_file_exit(self, tmp_path, example_csv, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["factorize", "--input", example_csv, "--rank", "2",
                     "--bounds", missing]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.csv" in err

    def test_io_error_exit(self):
        assert main([
            "factorize", "--input", "/nonexistent.csv", "--rank", "2",
        ]) == EXIT_IO

    def test_non_integer_mtx_index_exit(self, tmp_path, capsys):
        p = tmp_path / "X.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 3.0\n")
        assert main(["factorize", "--input", str(p), "--rank", "1"]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_centered_with_inferred_bounds(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.uniform(3.0, 7.0, size=(12, 10))  # offset data, where centering matters
        p = tmp_path / "X.csv"
        write_dense_csv(p, X)
        prefix = str(tmp_path / "c_")
        assert main(["factorize", "--input", str(p), "--rank", "3", "--center",
                     "--bounds", "infer", "--outer", "40", "--rel-tol", "0",
                     "--out-prefix", prefix]) == EXIT_OK
        W, H = read_dense_csv(prefix + "W.csv"), read_dense_csv(prefix + "H.csv")
        lo, hi = X.min(axis=1), X.max(axis=1)
        assert np.all(W >= lo[:, None]) and np.all(W <= hi[:, None])
        meta = json.load(open(prefix + "meta.json"))
        assert meta["center"] is True
        assert (meta["bounds_lower"], meta["bounds_upper"]) == (lo.tolist(), hi.tolist())
        assert meta["final_objective"] == pytest.approx(
            objective(X, W, H, ObservationMask.full(*X.shape)), rel=1e-12)

    def test_non_utf8_input_exit(self, tmp_path, capsys):
        p = tmp_path / "X.csv"
        p.write_bytes(b"1,2,3\n4,\xff,6\n")
        assert main(["factorize", "--input", str(p), "--rank", "1"]) == EXIT_IO
        assert f"{p}: line 2 is not UTF-8" in capsys.readouterr().err

    def test_reproducible_output(self, tmp_path, example_csv):
        p1, p2 = str(tmp_path / "a_"), str(tmp_path / "b_")
        args = ["factorize", "--input", example_csv, "--rank", "2",
                "--bounds", "0:3", "--outer", "10", "--rel-tol", "0",
                "--seed", "4"]
        main(args + ["--out-prefix", p1])
        main(args + ["--out-prefix", p2])
        assert open(p1 + "W.csv").read() == open(p2 + "W.csv").read()
        assert open(p1 + "trace.csv").read() == open(p2 + "trace.csv").read()


class TestCheckSSC:
    def test_example_h_passes(self, tmp_path):
        p = tmp_path / "H.csv"
        write_dense_csv(p, EXAMPLE_H)
        assert main(["check-ssc", "--factor", str(p)]) == EXIT_OK

    def test_dense_fails(self, tmp_path):
        p = tmp_path / "H.csv"
        write_dense_csv(p, np.full((3, 6), 0.3))
        assert main(["check-ssc", "--factor", str(p)]) == EXIT_SSC_FAIL

    def test_w_stacked_passes(self, tmp_path):
        p = tmp_path / "W.csv"
        write_dense_csv(p, EXAMPLE_W)
        code = main(["check-ssc", "--factor", str(p), "--role", "w-stacked",
                     "--bounds", "0:3"])
        assert code == EXIT_OK


class TestMrsa:
    def test_identical(self, tmp_path, capsys):
        p = tmp_path / "W.csv"
        write_dense_csv(p, EXAMPLE_W)
        assert main(["mrsa", "--true", str(p), "--est", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("mean,")][0]
        assert float(mean_line.split(",")[1]) < 1e-4

    def test_permuted(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dense_csv(p1, EXAMPLE_W)
        write_dense_csv(p2, EXAMPLE_W[:, [2, 0, 1]])
        assert main(["mrsa", "--true", str(p1), "--est", str(p2)]) == EXIT_OK
        out = capsys.readouterr().out
        mean_line = [l for l in out.splitlines() if l.startswith("mean,")][0]
        assert float(mean_line.split(",")[1]) < 1e-4


class TestSynth:
    def test_defaults_written(self, tmp_path):
        prefix = str(tmp_path / "s_")
        code = main(["synth", "--m", "40", "--n", "40", "--rank", "5",
                     "--seed", "1", "--out-prefix", prefix])
        assert code == EXIT_OK
        X = read_dense_csv(prefix + "X.csv")
        W = read_dense_csv(prefix + "Wtrue.csv")
        H = read_dense_csv(prefix + "Htrue.csv")
        assert np.allclose(X, W @ H)

    def test_inconsistent_instance_exit(self, tmp_path, monkeypatch):
        W, H = np.ones((4, 2)), np.full((2, 4), 0.5)
        monkeypatch.setattr(cli.ident, "generate_synthetic",
                            lambda spec: (W, H, W @ H + 1.0))
        code = main(["synth", "--m", "4", "--n", "4", "--rank", "2",
                     "--out-prefix", str(tmp_path / "s_")])
        assert code == EXIT_NUMERICAL

    def test_p01_fraction(self, tmp_path):
        prefix = str(tmp_path / "s_")
        main(["synth", "--m", "40", "--n", "40", "--rank", "5",
              "--p01", "0.3", "--seed", "2", "--out-prefix", prefix])
        W = read_dense_csv(prefix + "Wtrue.csv")
        pinned = int(np.sum((W == 0) | (W == 1)))
        assert abs(pinned - 0.3 * 40 * 5) <= 1

    def test_seed_reproducible(self, tmp_path):
        p1, p2 = str(tmp_path / "a_"), str(tmp_path / "b_")
        main(["synth", "--m", "30", "--n", "30", "--rank", "4", "--seed", "9",
              "--out-prefix", p1])
        main(["synth", "--m", "30", "--n", "30", "--rank", "4", "--seed", "9",
              "--out-prefix", p2])
        assert open(p1 + "X.csv").read() == open(p2 + "X.csv").read()


class TestCenterDemo:
    def test_six_series(self, tmp_path, example_csv):
        out = str(tmp_path / "demo.csv")
        code = main(["center-demo", "--input", example_csv, "--rank", "2",
                     "--seeds", "2", "--outer", "5", "--inner", "2",
                     "--out", out])
        assert code == EXIT_OK
        header = open(out).readline().strip().split(",")
        assert header == ["iteration", "plain_alg1", "plain_bcd",
                          "centered_alg1", "centered_bcd",
                          "uneven_alg1", "uneven_bcd"]


class TestComplete:
    def test_tiny_ratings_sweep(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for u in range(1, 21):
            items = rng.choice(range(1, 16), size=8, replace=False)
            for i in items:
                lines.append(f"{u}\t{i}\t{rng.integers(1, 6)}\t0")
        p = tmp_path / "u.data"
        p.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "eval.csv")
        code = main(["complete", "--ratings", str(p), "--flavor", "tsv",
                     "--rank", "1,2", "--variant", "bssmf",
                     "--split-test-users", "3", "--seeds", "1", "--out", out])
        assert code == EXIT_OK
        rows = open(out).read().strip().splitlines()
        assert len(rows) == 3  # header + 2 ranks
        assert rows[1].split(",")[5] == "0"  # std column zero for 1 seed

    @pytest.mark.parametrize("variant", ["nmf", "mf"])
    def test_center_other_variant_exit(self, tmp_path, capsys, variant):
        p = tmp_path / "u.data"
        p.write_text("".join(f"{u}\t{i}\t{1 + (u + i) % 5}\t0\n"
                             for u in range(1, 9) for i in range(1, 6)))
        code = main(["complete", "--ratings", str(p), "--flavor", "tsv", "--rank", "1",
                     "--variant", variant, "--center", "--split-test-users", "2",
                     "--out", str(tmp_path / "eval.csv")])
        assert code == EXIT_CONFIG
        assert "centering requires the bounded simplex variant" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    def test_non_utf8_ratings_exit(self, tmp_path, capsys):
        p = tmp_path / "u.data"
        p.write_bytes(b"1\t10\t5\t0\n2\t10\t\xff\t0\n")
        code = main(["complete", "--ratings", str(p), "--flavor", "tsv", "--rank", "1",
                     "--out", str(tmp_path / "eval.csv")])
        assert code == EXIT_IO
        assert f"{p}: line 2 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line, message", [
        ("2\t10\t4\tabc", "line 2"),
        ("1\t10\t4\t0", "duplicate rating for user 1, item 10"),
    ])
    def test_bad_ratings_file_exit(self, tmp_path, capsys, bad_line, message):
        p = tmp_path / "u.data"
        p.write_text(f"1\t10\t5\t0\n{bad_line}\n")
        code = main(["complete", "--ratings", str(p), "--flavor", "tsv", "--rank", "1",
                     "--out", str(tmp_path / "eval.csv")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
