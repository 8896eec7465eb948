"""Every subcommand on a missing input, a malformed one and a bad flag value,
and ``cli.main`` as the one place that picks the exit code of a failure.

``cli.main`` maps what a command raises to its exit code: an OSError or a
DataFormatError gives 3, a FloatingPointError (a diverged solve, NaN or inf
data) 1, any other ValueError 2. Each failure must return that code with one
``error:`` line on stderr; an exception escaping ``main`` would be a
traceback in a shell, and fails the test as it is raised. ``synth`` reads no
file, so its two I/O cases write under a missing directory and under a
regular file.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from bssmf.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, main
from bssmf.io_formats import write_dense_csv

from conftest import EXAMPLE_X


@pytest.fixture
def files(tmp_path):
    """The directory and, keyed by stem, a good matrix (X), a good 3 x 3 one
    (W3), the 3 x 3 identity (I3), a 5 x 5 matrix of entries near 1e154
    whose squares overflow (big), a malformed CSV (bad), a MatrixMarket file
    with no entry (empty), a good and a malformed ratings file (u, bad_u)."""
    write_dense_csv(tmp_path / "X.csv", EXAMPLE_X / 4.0)
    write_dense_csv(tmp_path / "W3.csv", np.arange(9.0).reshape(3, 3) % 4)
    write_dense_csv(tmp_path / "I3.csv", np.eye(3))
    write_dense_csv(tmp_path / "big.csv",
                    np.random.default_rng(0).uniform(0.5, 1.5, size=(5, 5)) * 1e154)
    (tmp_path / "empty.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                        "3 4 0\n")
    (tmp_path / "bad.csv").write_text("1,2\n3,abc\n")
    (tmp_path / "bad_u.data").write_text("1\t10\t5\t0\n2\t10\tabc\t0\n")
    (tmp_path / "u.data").write_text("".join(f"{u}\t{i}\t{1 + (u + i) % 5}\t0\n"
                                            for u in range(1, 9) for i in range(1, 6)))
    paths = {p.stem: str(p) for p in tmp_path.iterdir()}
    paths["dir"] = str(tmp_path)
    return paths


CASES = [
    # (subcommand, what goes wrong, argv with {stem} for a file of the fixture, code)
    ("factorize", "missing", ["--input", "{dir}/none.csv", "--rank", "2"], EXIT_IO),
    ("factorize", "malformed", ["--input", "{bad}", "--rank", "2"], EXIT_IO),
    ("factorize", "bad value", ["--input", "{X}", "--rank", "0"], EXIT_CONFIG),
    ("factorize", "seed -1", ["--input", "{X}", "--rank", "2", "--seed", "-1"], EXIT_CONFIG),
    ("factorize", "rel-tol nan", ["--input", "{X}", "--rank", "2", "--rel-tol", "nan"],
     EXIT_CONFIG),
    ("factorize", "center on no entry", ["--input", "{empty}", "--rank", "1", "--center",
                                         "--bounds", "0:1"], EXIT_CONFIG),
    ("factorize", "squares overflow", ["--input", "{big}", "--rank", "3",
                                       "--bounds", "0:2e154"], EXIT_NUMERICAL),
    ("complete", "missing", ["--ratings", "{dir}/none.data", "--flavor", "tsv",
                             "--rank", "1"], EXIT_IO),
    ("complete", "malformed", ["--ratings", "{bad_u}", "--flavor", "tsv",
                               "--rank", "1"], EXIT_IO),
    ("complete", "bad value", ["--ratings", "{u}", "--flavor", "tsv", "--rank", "1",
                               "--split-test-users", "2", "--known-fraction", "1.5"],
     EXIT_CONFIG),
    ("complete", "seed -3", ["--ratings", "{u}", "--flavor", "tsv", "--rank", "1",
                             "--split-test-users", "2", "--seed", "-3"], EXIT_CONFIG),
    ("check-ssc", "missing", ["--factor", "{dir}/none.csv"], EXIT_IO),
    ("check-ssc", "malformed", ["--factor", "{bad}"], EXIT_IO),
    ("check-ssc", "bad value", ["--factor", "{X}", "--role", "w-stacked",
                                "--bounds", "0:x"], EXIT_CONFIG),
    ("check-ssc", "tol nan", ["--factor", "{I3}", "--tol", "nan"], EXIT_CONFIG),
    ("check-ssc", "tol -1", ["--factor", "{I3}", "--tol", "-1"], EXIT_CONFIG),
    ("check-ssc", "tol inf", ["--factor", "{I3}", "--tol", "inf"], EXIT_CONFIG),
    ("mrsa", "missing", ["--true", "{dir}/none.csv", "--est", "{W3}"], EXIT_IO),
    ("mrsa", "malformed", ["--true", "{W3}", "--est", "{bad}"], EXIT_IO),
    ("mrsa", "bad value", ["--true", "{X}", "--est", "{W3}"], EXIT_CONFIG),
    ("synth", "missing", ["--m", "10", "--n", "10", "--rank", "3",
                          "--out-prefix", "{dir}/none/s_"], EXIT_IO),
    ("synth", "malformed", ["--m", "10", "--n", "10", "--rank", "3",
                            "--out-prefix", "{bad}/s_"], EXIT_IO),
    ("synth", "rank 1", ["--rank", "1"], EXIT_CONFIG),
    ("synth", "rank above min(m, n)", ["--m", "10", "--rank", "11"], EXIT_CONFIG),
    ("synth", "p01 2", ["--p01", "2"], EXIT_CONFIG),
    ("synth", "h-zeros -0.1", ["--h-zeros", "-0.1"], EXIT_CONFIG),
    ("synth", "m -5", ["--m", "-5"], EXIT_CONFIG),
    ("synth", "m 0", ["--m", "0"], EXIT_CONFIG),
    ("synth", "n 0", ["--n", "0"], EXIT_CONFIG),
    ("center-demo", "missing", ["--input", "{dir}/none.csv", "--rank", "2"], EXIT_IO),
    ("center-demo", "malformed", ["--input", "{bad}", "--rank", "2"], EXIT_IO),
    ("center-demo", "bad value", ["--input", "{X}", "--rank", "0", "--seeds", "1"],
     EXIT_CONFIG),
    ("center-demo", "squares overflow", ["--input", "{big}", "--rank", "3"], EXIT_NUMERICAL),
]


@pytest.mark.parametrize("command, case, argv, code", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_exit_code_and_one_error_line(files, capsys, command, case, argv, code):
    prefix = files["dir"] + "/out_"
    argv = [a.format(**files) for a in argv]
    if command == "synth" and "--out-prefix" not in argv:
        argv += ["--out-prefix", prefix]
    elif command in ("complete", "center-demo"):
        argv += ["--out", prefix + "table.csv"]
    elif command == "factorize":
        argv += ["--out-prefix", prefix]
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow cases overflow
        assert main([command] + argv) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1
    assert "Traceback" not in err
    assert "did not converge" not in err
    assert not list(Path(files["dir"]).glob("out_*"))  # nothing written


@pytest.mark.parametrize("command", ["factorize", "center-demo"])
def test_overflow_prints_only_the_error_line(files, capsys, command):
    """With numpy's default error state, the overflow case prints its one
    ``error:`` line and no RuntimeWarning: the solve checks what overflows."""
    argv = [command, "--input", files["big"], "--rank", "3"]
    argv += (["--bounds", "0:2e154", "--out-prefix", files["dir"] + "/out_"]
             if command == "factorize" else ["--out", files["dir"] + "/out_table.csv"])
    with warnings.catch_warnings(record=True) as seen:  # a shown warning is a stderr line
        warnings.simplefilter("always")
        assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert [str(w.message) for w in seen] == []
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


CLI = Path(__file__).resolve().parents[1] / "src" / "bssmf" / "cli.py"
FAILURE_CODES = {"EXIT_NUMERICAL", "EXIT_CONFIG", "EXIT_IO"}
FUNCTIONS = [node for node in ast.parse(CLI.read_text(encoding="utf-8")).body
             if isinstance(node, ast.FunctionDef) and node.name != "main"]


def _is_synth_verdict(fn, handler):
    """cmd_synth's one local mapping: a RuntimeError, a verdict, returns 11."""
    return (fn.name == "cmd_synth" and ast.unparse(handler.type) == "RuntimeError"
            and [ast.unparse(stmt) for stmt in handler.body]
            == ["return _fail(EXIT_SYNTH_EXHAUSTED, e)"])


def _picks_failure_codes(fn):
    """Where fn decides what main decides: a _fail call with 1, 2 or 3; an
    except handler in a command, but for synth's verdict, or one in a helper
    that does not end by raising (a helper may reword an error, as
    _bounds_pair does for --bounds, and leave its code to main); an isfinite
    scan, which the library makes where the data enters."""
    rewords = not fn.name.startswith("cmd_")
    found = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "_fail"
                and ast.unparse(node.args[0]) in FAILURE_CODES | {"1", "2", "3"}):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.ExceptHandler)
                and not (rewords and isinstance(node.body[-1], ast.Raise))
                and not _is_synth_verdict(fn, node)):
            found.append(f"line {node.lineno}: except {ast.unparse(node.type)}")
        elif (isinstance(node, (ast.Name, ast.Attribute))
                and ast.unparse(node).endswith("isfinite")):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("fn", FUNCTIONS, ids=[fn.name for fn in FUNCTIONS])
def test_only_main_picks_failure_exit_codes(fn):
    assert _picks_failure_codes(fn) == [], (
        f"cli.{fn.name} decides what cli.main decides: raise, and let main pick the code")
