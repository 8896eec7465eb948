"""A derandomized fuzz of every subcommand of ``cli.main``, run in-process.

Each case runs one subcommand on small valid input files or byte mutations of
them, with flag values drawn from edge sets: NaN, +-inf, negative, zero,
huge, empty strings and comma lists with gaps. Every value passes argparse's
type check for its flag, so ``main`` always reaches the command. Size and
count flags draw only from {-1, 0, 1, 2, 3} and are always given (their
defaults are large), so no case allocates much memory or loops long, and none
starts a process or a thread.

A case passes when no exception escapes ``main``, the exit code is one of the
documented ones, a failure (1, 2 or 3) prints exactly one line to stderr, its
``error:`` line, and writes no output file, and no RuntimeWarning is raised.
Warnings are recorded, so the suite's ``error::UserWarning`` filter does not
turn the documented out-of-bounds warning into an exception.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bssmf.cli import main

from conftest import EXAMPLE_H, EXAMPLE_W, EXAMPLE_X

CODES = {0, 1, 2, 3, 10, 11}
COUNTS = st.sampled_from(["2", "1", "3", "0", "-1"])  # valid first: hypothesis favours it
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1e308", "1e-320"])
SEEDS = st.sampled_from(["-1", "0", "1", str(2**64), str(10**30)])
BOUNDS = st.sampled_from(["0:1", "0:3", "1:0", "2:2", "nan:1", "0:inf", "-inf:inf", "1e308:1e308",
                          ":", "", "0:1:2", "0:,"])
RANK_LISTS = st.sampled_from(["1", "2", "1,3", "1,,2", ",1", "2,", "", ",", "-1,2", "0"])
EDGE_BYTES = [b"-", b".", b"e", b"9", b"0", b",", b"\n", b"\t", b":", b"::", b" ", b"%",
              b"nan", b"inf", b"1e999", b"\x00", b"\xff", b"\r"]
SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _csv(A):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in A).encode()


def _inputs():
    """The valid files, by name: the name's suffix is the file's."""
    X = EXAMPLE_X / 4.0
    rows, cols = np.nonzero(np.arange(36).reshape(6, 6) % 3 != 1)
    mtx = "%%MatrixMarket matrix coordinate real general\n6 6 {}\n{}".format(
        rows.size, "".join(f"{i + 1} {j + 1} {X[i, j]!r}\n" for i, j in zip(rows, cols)))
    ratings = [(u, i, 1 + (3 * u + i) % 5) for u in range(1, 9) for i in range(1, 7)
               if (u + i) % 4]
    return {
        "X.csv": _csv(X),
        "X.mtx": mtx.encode(),
        "bounds.csv": _csv(np.column_stack([np.zeros(6), np.full(6, 1.5)])),
        "H.csv": _csv(EXAMPLE_H / 3.0),
        "W.csv": _csv(EXAMPLE_W),
        "W2.csv": _csv(EXAMPLE_W[:, ::-1] + 0.25),
        "u.data": "".join(f"{u}\t{i}\t{r}\t{u * i}\n" for u, i, r in ratings).encode(),
        "ratings.dat": "".join(f"{u}::{i}::{r}::{u + i}\n" for u, i, r in ratings).encode(),
    }


INPUTS = _inputs()


@st.composite
def files(draw, *names):
    """(name, content): one of the named valid files, as it is or with a few
    bytes replaced, deleted or inserted, or cut short."""
    name = draw(st.sampled_from(names))
    data = bytearray(INPUTS[name])
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(data)))
            op = draw(st.sampled_from(["replace", "delete", "insert", "cut"]))
            if op == "cut":
                del data[i:]
            elif op == "delete":
                del data[i:i + draw(st.integers(1, 4))]
            else:
                data[i:i + (op == "replace")] = draw(st.sampled_from(EDGE_BYTES))
    return name, bytes(data)


def _flag(flag, values):
    """[], or ["--flag=value"] for a drawn value: the = form keeps argparse
    from reading a value such as -inf as an option."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _args(*parts):
    return st.tuples(*parts).map(lambda lists: list(itertools.chain(*lists)))


def _always(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


# per subcommand: input files by flag, and the other flags
COMMANDS = {
    "factorize": (
        {"--input": ("X.csv", "X.mtx")},
        _args(_always("--rank", COUNTS), _flag("--variant", st.sampled_from(["bssmf", "nmf", "mf"])),
              _flag("--bounds", st.one_of(st.just("infer"), st.just("{bounds.csv}"), BOUNDS)),
              _always("--outer", COUNTS), _always("--inner-w", COUNTS),
              _always("--inner-h", COUNTS), _flag("--rel-tol", FLOATS),
              _switch("--no-extrapolation"), _switch("--center"), _flag("--seed", SEEDS),
              _always("--seed-sweep", COUNTS))),
    "complete": (
        {"--ratings": ("u.data", "ratings.dat")},
        _args(_always("--flavor", st.sampled_from(["tsv", "dat"])),
              _always("--rank", RANK_LISTS),
              _flag("--variant", st.sampled_from(["bssmf", "nmf", "mf"])),
              _always("--split-test-users", COUNTS), _flag("--known-fraction", FLOATS),
              _always("--seeds", COUNTS), _flag("--seed", SEEDS), _switch("--center"))),
    "check-ssc": (
        {"--factor": ("H.csv", "W.csv", "X.csv")},
        _args(_flag("--role", st.sampled_from(["h", "w-stacked"])), _flag("--bounds", BOUNDS),
              _flag("--tol", FLOATS))),
    "mrsa": ({"--true": ("W.csv", "W2.csv", "H.csv"), "--est": ("W.csv", "W2.csv")},
             st.just([])),
    "synth": (
        {},
        _args(_always("--m", COUNTS), _always("--n", COUNTS), _always("--rank", COUNTS),
              _flag("--h-zeros", FLOATS), _flag("--p01", FLOATS), _flag("--seed", SEEDS))),
    "center-demo": (
        {"--input": ("X.csv", "X.mtx")},
        _args(_always("--rank", COUNTS), _always("--seeds", COUNTS), _always("--outer", COUNTS),
              _always("--inner", COUNTS))),
}
OUTPUTS = {"factorize": "--out-prefix", "complete": "--out", "synth": "--out-prefix",
           "center-demo": "--out"}


def _run(tmp_path, capsys, command, inputs, bounds, flags):
    """Run one case in a directory of its own; returns (code, stderr, the
    files written to the output directory, the warnings)."""
    case = tmp_path / str(len(list(tmp_path.iterdir())))
    (case / "out").mkdir(parents=True)
    (case / "bounds.csv").write_bytes(bounds)
    argv = [command] + [f.replace("{bounds.csv}", str(case / "bounds.csv")) for f in flags]
    for flag, (name, data) in inputs.items():
        (case / name).write_bytes(data)
        argv.append(f"{flag}={case / name}")
    if command in OUTPUTS:
        argv.append(f"{OUTPUTS[command]}={case / 'out' / 'o_'}")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(argv)
    return code, capsys.readouterr().err, list((case / "out").iterdir()), seen


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fuzzed_command_exits_with_a_documented_code(tmp_path, capsys, command):
    named, flags = COMMANDS[command]
    inputs = st.fixed_dictionaries({flag: files(*names) for flag, names in named.items()})

    @SETTINGS
    @given(inputs, files("bounds.csv"), flags)
    def case(inputs, bounds, flags):
        code, err, written, seen = _run(tmp_path, capsys, command, inputs, bounds[1], flags)
        assert code in CODES, (code, err)
        if code in (1, 2, 3):
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert written == []
        runtime = [str(w.message) for w in seen if issubclass(w.category, RuntimeWarning)]
        assert runtime == [], err

    case()
