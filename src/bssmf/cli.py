"""Command-line driver: factorize, complete, check-ssc, mrsa, synth, center-demo.

Every run prints its resolved configuration before starting, writes CSV
artifacts only, and uses disjoint exit codes: 0 success, 1 numerical failure,
2 configuration error, 3 I/O error, 10 scatteredness check failed,
11 synthetic regeneration exhausted. Commands raise on every failure, and
:func:`main` alone turns the exception into 1, 2 or 3: OSError or
io_formats.DataFormatError 3; FloatingPointError 1, which a solve that stops
"diverged" raises through SolveReport.raise_if_diverged, and so does NaN or
inf data (matrixcore.NonFiniteDataError, also a ValueError); any other
ValueError (ConfigError, ShapeError) 2. The codes 10 and 11 are verdicts,
not failures: ``check-ssc`` returns 10 when the check fails, and ``synth``
returns 11 when generate_synthetic raises RuntimeError. Each failure prints
one ``error:`` line to stderr.
"""

import argparse
import sys

import numpy as np

from . import evaluation as ev
from . import identifiability as ident
from . import io_formats as iof
from . import preprocessing as prep
from . import solver as sv
from .matrixcore import ObservationMask
from .projections import BoundsVector

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SSC_FAIL = 10
EXIT_SYNTH_EXHAUSTED = 11


def _fail(code, msg):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _bounds_pair(spec_str):
    """(lo, hi) from a --bounds value of the form lo:hi."""
    try:
        lo, hi = (float(v) for v in spec_str.split(":"))
    except ValueError:
        raise ValueError(f"--bounds must be lo:hi, two numbers, got {spec_str!r}") from None
    return lo, hi


def _parse_bounds(spec_str, X, M):
    if spec_str == "infer":
        return prep.infer_bounds(X, M)
    if ":" in spec_str:
        return BoundsVector.constant(M.rows, *_bounds_pair(spec_str))
    B = iof.read_dense_csv(spec_str)
    if B.shape != (M.rows, 2):
        raise ValueError(f"bounds file must have {M.rows} rows of two columns (lower, upper)")
    return BoundsVector(B[:, 0], B[:, 1])


def _load_matrix(path):
    if path.endswith(".mtx"):
        return iof.read_matrix_market(path)
    X = iof.read_dense_csv(path)
    return X, ObservationMask.full(*X.shape)


def _print_config(name, ns):
    opts = {k: v for k, v in vars(ns).items() if k not in ("func",)}
    print(f"[{name}] config: {opts}")


def cmd_factorize(args):
    if args.seed_sweep < 1:
        raise ValueError(f"--seed-sweep must be at least 1, got {args.seed_sweep}")
    X, M = _load_matrix(args.input)
    bounds = _parse_bounds(args.bounds, X, M)
    variant = sv.ModelVariant.from_kind(args.variant, bounds)
    best = None
    for seed in range(args.seed, args.seed + args.seed_sweep):
        config = sv.SolverConfig(
            rank=args.rank, max_outer=args.outer, max_inner_W=args.inner_w,
            max_inner_H=args.inner_h, rel_tol=args.rel_tol,
            extrapolate=not args.no_extrapolation, center=args.center, seed=seed,
        )
        factors, report = sv.solve(X, M, variant, config)
        report.raise_if_diverged(f"with seed {seed}")
        final = report.objective_trace[-1]
        if best is None or final < best[2]:
            best = (factors, report, final, config)
    factors, report, final, config = best
    iof.write_factors(args.out_prefix, factors, report, config, variant, bounds)
    print(f"final objective {final:.6g} after {report.outer_iterations} outer iterations")
    return EXIT_OK


def cmd_complete(args):
    dataset = iof.read_movielens(args.ratings, args.flavor)
    ranks = [int(r) for r in args.rank.split(",")]
    spec = ev.SplitSpec(
        test_user_count=args.split_test_users,
        known_fraction=args.known_fraction,
        seed=args.seed,
    )
    reports = ev.overfitting_sweep(
        dataset, spec, ranks, [args.variant], list(range(args.seeds)),
        center=args.center, dataset_name=args.ratings,
    )
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("dataset,variant,rank,seed_count,rmse_mean,rmse_std,"
                "train_rmse_mean,wall_time_s\n")
        for r in reports:
            f.write(f"{r.dataset},{r.variant},{r.rank},{r.seeds_used},"
                    f"{r.rmse_test:.17g},{r.rmse_std:.17g},"
                    f"{r.rmse_train:.17g},{r.wall_time:.3f}\n")
    for r in reports:
        print(f"{r.variant} r={r.rank}: test RMSE {r.rmse_test:.4f} "
              f"+- {r.rmse_std:.4f}")
    return EXIT_OK


def cmd_check_ssc(args):
    A = iof.read_dense_csv(args.factor)
    if args.role == "w-stacked":
        bounds = BoundsVector.constant(A.shape[0], *_bounds_pair(args.bounds))
        A = ident.stack_for_theorem3(A, bounds).T
        role = "W_stacked"
    else:
        role = "H"
    report = ident.ssc_necessary_check(A, args.tol, matrix_role=role)
    print(f"role={report.matrix_role} overall_pass={report.overall_pass}")
    print("row,zero_count,zero_set_rank,passes")
    for k, row in enumerate(report.per_row):
        print(f"{k},{row.zero_count},{row.zero_set_rank},{int(row.passes)}")
    return EXIT_OK if report.overall_pass else EXIT_SSC_FAIL


def cmd_mrsa(args):
    W_true = iof.read_dense_csv(args.true)
    W_est = iof.read_dense_csv(args.est)
    report = ident.match_and_score(W_true, W_est)
    print("column,matched_to,mrsa")
    for i, (p, v) in enumerate(zip(report.permutation, report.per_column_mrsa)):
        print(f"{i},{p},{v:.12g}")
    print(f"mean,{report.mean_mrsa:.12g}")
    return EXIT_OK


def cmd_synth(args):
    spec = ident.SyntheticSpec(
        m=args.m, n=args.n, r=args.rank,
        h_zero_fraction=args.h_zeros, p01=args.p01, seed=args.seed,
    )
    try:
        W, H, X = ident.generate_synthetic(spec)
    except RuntimeError as e:
        return _fail(EXIT_SYNTH_EXHAUSTED, e)
    if not np.allclose(X, W @ H):
        raise FloatingPointError("generated X differs from W @ H")
    iof.write_dense_csv(args.out_prefix + "X.csv", X)
    iof.write_dense_csv(args.out_prefix + "Wtrue.csv", W)
    iof.write_dense_csv(args.out_prefix + "Htrue.csv", H)
    print(f"wrote {args.out_prefix}{{X,Wtrue,Htrue}}.csv")
    return EXIT_OK


def cmd_center_demo(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    X, M = _load_matrix(args.input)
    bounds = prep.infer_bounds(X, M)
    offset = float(np.mean((bounds.upper - bounds.lower) / 2.0))
    uneven = (X + offset, BoundsVector(bounds.lower + offset, bounds.upper + offset))
    # "centered" is the plain data with centering on
    scenarios = {"plain": (X, bounds), "centered": (X, bounds), "uneven": uneven}
    series = {}
    for mode, (Xm, bm) in scenarios.items():
        for extrap, label in ((True, "alg1"), (False, "bcd")):
            traces = []
            for seed in range(args.seeds):
                config = sv.SolverConfig(
                    rank=args.rank, max_outer=args.outer,
                    max_inner_W=args.inner, max_inner_H=args.inner,
                    rel_tol=0.0, extrapolate=extrap, center=mode == "centered",
                    seed=seed,
                )
                _, rep = sv.solve(Xm, M, sv.ModelVariant.bssmf(bm), config)
                rep.raise_if_diverged(f"in scenario {mode}_{label} with seed {seed}")
                traces.append(rep.objective_trace)
            series[f"{mode}_{label}"] = np.mean([t[: args.outer + 1] for t in traces], axis=0)
    cols = list(series)  # plain, centered, uneven; alg1 before bcd in each
    table = np.column_stack([np.arange(len(series[cols[0]]))] + [series[c] for c in cols])
    iof.write_dense_csv(args.out, table, header=["iteration"] + cols)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="bssmf")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factorize", help="factorize a matrix")
    f.add_argument("--input", required=True)
    f.add_argument("--rank", type=int, required=True)
    f.add_argument("--variant", choices=["bssmf", "nmf", "mf"], default="bssmf")
    f.add_argument("--bounds", default="infer",
                   help="'infer', 'lo:hi', or a two-column CSV of per-row bounds")
    f.add_argument("--outer", type=int, default=500)
    f.add_argument("--inner-w", type=int, default=20)
    f.add_argument("--inner-h", type=int, default=20)
    f.add_argument("--rel-tol", type=float, default=1e-7)
    f.add_argument("--no-extrapolation", action="store_true")
    f.add_argument("--center", action="store_true")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--seed-sweep", type=int, default=1,
                   help="run this many consecutive seeds, keep the best objective")
    f.add_argument("--out-prefix", default="bssmf_")
    f.set_defaults(func=cmd_factorize)

    c = sub.add_parser("complete", help="matrix-completion evaluation on ratings")
    c.add_argument("--ratings", required=True)
    c.add_argument("--flavor", choices=["dat", "tsv"], required=True)
    c.add_argument("--rank", required=True, help="single rank or comma list")
    c.add_argument("--variant", choices=["bssmf", "nmf", "mf"], default="bssmf")
    c.add_argument("--split-test-users", type=int, default=50)
    c.add_argument("--known-fraction", type=float, default=0.8)
    c.add_argument("--seeds", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--center", action="store_true")
    c.add_argument("--out", default="eval.csv")
    c.set_defaults(func=cmd_complete)

    s = sub.add_parser("check-ssc", help="scatteredness necessary condition")
    s.add_argument("--factor", required=True)
    s.add_argument("--role", choices=["h", "w-stacked"], default="h")
    s.add_argument("--bounds", default="0:1", help="lo:hi, used with w-stacked")
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(func=cmd_check_ssc)

    m = sub.add_parser("mrsa", help="column-matched angular error")
    m.add_argument("--true", required=True)
    m.add_argument("--est", required=True)
    m.set_defaults(func=cmd_mrsa)

    y = sub.add_parser("synth", help="generate a synthetic ground-truth instance")
    y.add_argument("--m", type=int, default=100)
    y.add_argument("--n", type=int, default=100)
    y.add_argument("--rank", type=int, default=10)
    y.add_argument("--h-zeros", type=float, default=0.30)
    y.add_argument("--p01", type=float, default=0.0)
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--out-prefix", default="synth_")
    y.set_defaults(func=cmd_synth)

    d = sub.add_parser("center-demo", help="paired plain/centered/offset traces")
    d.add_argument("--input", required=True)
    d.add_argument("--rank", type=int, required=True)
    d.add_argument("--seeds", type=int, default=10)
    d.add_argument("--outer", type=int, default=50)
    d.add_argument("--inner", type=int, default=5)
    d.add_argument("--out", default="center_demo.csv")
    d.set_defaults(func=cmd_center_demo)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    _print_config(args.command, args)
    try:
        return args.func(args)
    except (OSError, iof.DataFormatError) as e:  # before ValueError: a DataFormatError is one
        return _fail(EXIT_IO, e)
    except FloatingPointError as e:
        return _fail(EXIT_NUMERICAL, e)
    except ValueError as e:
        return _fail(EXIT_CONFIG, e)


if __name__ == "__main__":
    sys.exit(main())
