"""Every subcommand on a missing input, a malformed one and a bad flag value.

``cli.main`` maps what a command raises to its exit code: an OSError or a
DataFormatError gives 3, any other ValueError 2. Each failure must return
that code with one ``error:`` line on stderr; an exception escaping ``main``
would be a traceback in a shell, and fails the test as it is raised.
``synth`` reads no file, so its two I/O cases write under a missing
directory and under a regular file.
"""

from pathlib import Path

import numpy as np
import pytest

from bssmf.cli import EXIT_CONFIG, EXIT_IO, main
from bssmf.io_formats import write_dense_csv

from conftest import EXAMPLE_X


@pytest.fixture
def files(tmp_path):
    """The directory and, keyed by stem, a good matrix (X), a good 3 x 3 one
    (W3), a malformed CSV (bad), a good and a malformed ratings file (u,
    bad_u)."""
    write_dense_csv(tmp_path / "X.csv", EXAMPLE_X / 4.0)
    write_dense_csv(tmp_path / "W3.csv", np.arange(9.0).reshape(3, 3) % 4)
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
    ("complete", "missing", ["--ratings", "{dir}/none.data", "--flavor", "tsv",
                             "--rank", "1"], EXIT_IO),
    ("complete", "malformed", ["--ratings", "{bad_u}", "--flavor", "tsv",
                               "--rank", "1"], EXIT_IO),
    ("complete", "bad value", ["--ratings", "{u}", "--flavor", "tsv", "--rank", "1",
                               "--split-test-users", "2", "--known-fraction", "1.5"],
     EXIT_CONFIG),
    ("check-ssc", "missing", ["--factor", "{dir}/none.csv"], EXIT_IO),
    ("check-ssc", "malformed", ["--factor", "{bad}"], EXIT_IO),
    ("check-ssc", "bad value", ["--factor", "{X}", "--role", "w-stacked",
                                "--bounds", "0:x"], EXIT_CONFIG),
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
    assert main([command] + argv) == code
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")]
    assert "Traceback" not in err
    assert not list(Path(files["dir"]).glob("out_*"))  # nothing written
