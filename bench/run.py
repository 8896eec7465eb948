"""Seeded benchmark for bssmf.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in a closed loop for ``--seconds``
seconds, checks every fit, writes a result file with provenance to
``bench/out/`` and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, measured
with no instrumentation. ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics, each averaged per traced
iteration, plus the tracing overhead (traced minus untraced ``total_s``).
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _limit_blas_threads():
    """One caller; BLAS gets one thread per core this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _import_library():
    """Import bssmf from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import bssmf

    if not os.path.abspath(bssmf.__file__).startswith(src + os.sep):
        raise SystemExit(f"bssmf was imported from {bssmf.__file__}, not from {src}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _one_iteration(workload, it, tracer):
    """Run one iteration, with the tracer installed only while it runs, then score it."""
    if tracer is not None:
        tracer.iteration = it
        tracer.install()
    try:
        sample, score = workload.iteration(it)
    finally:
        if tracer is not None:
            tracer.uninstall()
    score()
    return sample


def run_loop(workload, seconds, tracer):
    """Run iterations until ``seconds`` have passed and the minimum count is met.

    With a tracer, odd iterations are traced and even ones are not.
    Returns (untraced samples, traced samples, attempted fits, failed fits, problems).
    """
    plain, traced, problems = [], [], []
    attempted = failed = 0
    need = workload.min_iterations if tracer is None else max(2, workload.min_iterations)
    start = time.perf_counter()
    it = 0
    while it < need or time.perf_counter() - start < seconds:
        use_tracer = tracer is not None and it % 2 == 1
        # start every iteration from the same collector state, so collections
        # fall at the same points of the pipeline in every iteration and run
        gc.collect()
        attempted += workload.fits_per_iteration
        try:
            sample = _one_iteration(workload, it, tracer if use_tracer else None)
        except Exception:
            traceback.print_exc()
            failed += workload.fits_per_iteration
            problems.append(f"iteration {it}: raised")
        else:
            if sample.problems:
                failed += workload.fits_per_iteration
                problems += [f"iteration {it}: {p}" for p in sample.problems]
            (traced if use_tracer else plain).append(sample)
        it += 1
    return plain, traced, attempted, failed, problems


def end_to_end(samples):
    """End-to-end values of a run from its iterations, and the peak RSS.

    ``train_s``, ``outer_iter_s`` and ``total_s`` are each the minimum over
    the iterations. The iterations of a workload do about the same work, and
    other load on the host only adds time to it, but the host's speed changes
    in phases that last about as long as a run: the median iteration follows
    those phases, the fastest one follows the code. ``setup_s`` and the
    quality figures are medians (set-up work varies between iterations).
    """
    values = {k: min(getattr(s, k) for s in samples)
              for k in ("train_s", "outer_iter_s", "total_s")}
    values["setup_s"] = statistics.median(s.setup_s for s in samples)
    for k in samples[0].quality:
        values[k] = statistics.median(s.quality[k] for s in samples)
    values["peak_rss_mb"] = _peak_rss_mb()
    return values


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, plain, traced):
    """Per-layer values, each per traced iteration, plus counts and tracing overhead."""
    n = len(traced)
    layers = tracer.layers()
    values = {}
    for name, agg in layers.items():
        for key, v in agg.items():
            values[f"{name}.{key}"] = v / n
    for name, (flop, traffic, cells) in tracer.work.items():
        values[f"{name}.computed_gflop"] = flop / 1e9 / n
        values[f"{name}.computed_gb"] = traffic / 1e9 / n
        values[f"{name}.cells"] = cells / n
    values["solver.outer_iters"] = statistics.fmean(s.outer_iters for s in traced)
    values["solver.iters_to_target"] = statistics.fmean(s.iters_to_target for s in traced)
    ssc = layers["identifiability.ssc_necessary_check"]["calls"]
    gen = layers["identifiability.generate_synthetic"]["calls"]
    values["identifiability.ssc_necessary_check.useful_ratio"] = gen / ssc if ssc else 0.0
    untraced_total = statistics.median(s.total_s for s in plain)
    overhead = statistics.median(s.total_s for s in traced) - untraced_total
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / untraced_total
    values["trace.spans"] = len(tracer.spans) / n
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    _import_library()
    import checks
    import provenance
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = _spec()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    checks.self_test()

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    work_root = os.path.join(BENCH, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        workload.prepare(args.seed, workdir)
        prepare_rss_mb = _peak_rss_mb()
        plain, traced, attempted, failed, problems = run_loop(workload, args.seconds, tracer)
    if not plain or (tracer is not None and not traced):
        raise SystemExit("no iteration completed; nothing to report")

    if tracer is None:
        values, wanted = end_to_end(plain), spec["end_to_end"]
    else:
        values, wanted = per_layer(tracer, plain, traced), spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, args.seed),
        # peak RSS once the inputs are made, before the library runs: peak_rss_mb
        # belongs to the library only while it is above this
        "prepare_rss_mb": prepare_rss_mb,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "all_values": values,
        "samples": [dict(vars(s), traced=False) for s in plain]
                   + [dict(vars(s), traced=True) for s in traced],
        "problems": problems,
    }
    if tracer is not None:
        tracer.save(stem + ".spans.npz", t0)
        record["top_self_s"] = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")),
                                      reverse=True)[:10]
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
