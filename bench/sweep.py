"""Repeat the benchmark over seeds and summarize, optionally as a trajectory point.

    python3 bench/sweep.py --workloads synth-recovery dense-2k --seeds 1 2 3 \
        [--trace 0] [--write bench/results/BENCH_<n>.json]

Runs ``bench/run.py`` once per (workload, seed) for ``BENCHMARK.json``'s
``run_seconds``, one process at a time, and prints per metric the median over
seeds, the quartiles and the spread (quartile distance over the median) next
to the metric's bound, and each workload's wall time. With ``--write`` it also
stores the summary and the raw per-seed values in a JSON file, under
``end_to_end`` or ``per_layer`` by ``--trace``, together with the provenance
of the first run (seeds are listed per section).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs, walls = zip(*(run_once(workload, seed, seconds, args.trace) for seed in args.seeds))
        raw = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": walls,
            "units": {k: v["unit"] for k, v in runs[0]["metrics"].items()},
            "summary": {k: summarize(v) for k, v in raw.items()} if len(runs) > 1 else {},
            "raw": raw,
        }
        report["workloads"][workload] = entry
        print(f"== {workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} wall={sum(walls):.0f}s (max {max(walls):.0f}s)")
        for name, s in entry["summary"].items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- wide"
            print(f"  {name:28s} median={s['median']:.6g} spread={spread} bound={bound}{flag}")
    if args.write:
        # one file holds both sections of a trajectory point
        point = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as f:
                point = json.load(f)
        out = os.path.join(BENCH, "out", f"{args.workloads[0]}_seed{args.seeds[0]}_trace{args.trace}.json")
        with open(out, encoding="utf-8") as f:
            point["provenance"] = json.load(f)["provenance"]
        point["provenance"].pop("seed")
        point["per_layer" if args.trace else "end_to_end"] = report
        with open(args.write, "w", encoding="utf-8") as f:
            json.dump(point, f, indent=1)


if __name__ == "__main__":
    main()
