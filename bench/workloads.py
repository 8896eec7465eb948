"""The benchmark workloads.

``BENCHMARK.json`` gates three of them. ``complete-1m`` runs only by hand: at
the ml-1m shape one iteration takes 10-13 s, so a run within the benchmark's
time budget holds too few of them for figures that stay within a 25% bound on
a noisy shared host.

Each workload makes its inputs from the run seed in :meth:`prepare` (not
timed), then runs :meth:`iteration` in a closed loop: one caller, the next
iteration starts when the previous one returns. An iteration is one pass of
the user's pipeline, set-up included. It returns a timed :class:`Sample` and
a ``score`` callable that checks the fits and fills in quality and problems.
The loop calls ``score`` after the tracer is uninstalled, so the checks never
show up as library work.

Library calls that belong to the workload go through module attributes
(``sv.solve``, ``ev.split``, ...), so the traced run's wrappers see them.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import bssmf.evaluation as ev
import bssmf.identifiability as idf
import bssmf.io_formats as io
import bssmf.matrixcore as mc
import bssmf.preprocessing as pp
import bssmf.solver as sv
from bssmf.projections import BoundsVector

import checks
import ratings as rg

clock = time.perf_counter

TARGET_RATIO = 1e-10  # synth-recovery target: objective <= this share of its start


@dataclass
class Sample:
    """One iteration. Times in seconds; quality figures are floored (see checks)."""

    setup_s: float
    train_s: float
    total_s: float
    outer_iters: int
    iters_to_target: int
    quality: dict = None
    problems: list = field(default_factory=list)

    @property
    def outer_iter_s(self):
        return self.train_s / self.outer_iters


def _quality(**figures):
    return {name: checks.floored(name, value) for name, value in figures.items()}


class SynthRecovery:
    """100x100 rank-10 exact instances; bssmf and nmf fits with the test-11 protocol."""

    name = "synth-recovery"
    min_iterations = 5
    fits_per_iteration = 2

    def prepare(self, seed, workdir):
        self.seed = seed
        self.reference = checks.load_reference(self.name)

    def iteration(self, it):
        s = 1000 * self.seed + it
        t0 = clock()
        W_true, _, X = idf.generate_synthetic(idf.SyntheticSpec(p01=0.3, seed=s))
        t_setup = clock() - t0
        m, n = X.shape
        M = mc.ObservationMask.full(m, n)
        train = 0.0
        outer = to_target = 0
        fits = []
        variants = {sv.BSSMF: sv.ModelVariant.bssmf(BoundsVector.constant(m, 0.0, 1.0)),
                    sv.NMF: sv.ModelVariant.nmf(m)}
        for kind, variant in variants.items():
            config = sv.SolverConfig(rank=10, max_outer=300, max_inner_W=10,
                                     max_inner_H=10, rel_tol=1e-9, seed=s,
                                     record_trace=True)
            ts = clock()
            factors, report = sv.solve(X, M, variant, config)
            train += clock() - ts
            match = idf.match_and_score(W_true, factors.W)
            outer += report.outer_iterations
            trace = np.asarray(report.objective_trace)
            hit = np.flatnonzero(trace[1:] <= TARGET_RATIO * trace[0])
            # a fit that never reaches the target counts all its passes
            to_target += int(hit[0]) + 1 if hit.size else report.outer_iterations
            fits.append((kind, factors, variant, match))
        sample = Sample(t_setup, train, clock() - t0, outer, to_target)

        def score():
            for kind, factors, variant, match in fits:
                sample.problems += _factor_problems(kind, factors, variant)
                if kind == sv.BSSMF:  # quality is scored on the bounded model
                    R = X - factors.W @ factors.H
                    sample.quality = _quality(
                        rmse_test=np.sqrt(np.mean(R ** 2)), mrsa_mean=match.mean_mrsa,
                        rel_residual=np.linalg.norm(R) / np.linalg.norm(X))
            sample.problems += checks.quality_problems(sample.quality, self.reference)

        return sample, score


class Dense2k:
    """Noisy bounded 2000x2000 rank-20 matrix, full mask; solve + solve_centered."""

    name = "dense-2k"
    min_iterations = 3
    fits_per_iteration = 2
    size, rank, max_outer, noise = 2000, 20, 2, 0.3

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        k, r = self.size, self.rank
        self.W_true = rng.uniform(1.0, 5.0, size=(k, r))
        self.signal = self.W_true @ rng.dirichlet(np.full(r, 0.3), size=k).T
        self.X = np.clip(self.signal + self.noise * rng.standard_normal((k, k)), 1.0, 5.0)
        self.seed = seed
        self.workdir = workdir
        self.reference = checks.load_reference(self.name)

    def iteration(self, it):
        s = 1000 * self.seed + it
        X = self.X
        t0 = clock()
        bounds = pp.infer_bounds(X)
        variant = sv.ModelVariant.bssmf(bounds)
        t_setup = clock() - t0
        M = mc.ObservationMask.full(*X.shape)
        train = 0.0
        outer = 0
        fits = []
        for label, solve in (("solve", sv.solve), ("solve_centered", sv.solve_centered)):
            config = sv.SolverConfig(rank=self.rank, max_outer=self.max_outer,
                                     max_inner_W=10, max_inner_H=10, rel_tol=0.0,
                                     seed=s)
            ts = clock()
            factors, report = solve(X, M, variant, config)
            te = clock()
            prefix = os.path.join(self.workdir, f"{label}_")
            io.write_factors(prefix, factors, report, config, variant, bounds)
            train += te - ts
            outer += report.outer_iterations
            fits.append((label, factors))
        # a fixed outer budget is the target
        sample = Sample(t_setup, train, clock() - t0, outer, outer)

        def score():
            quality = []
            for label, factors in fits:
                sample.problems += _factor_problems(label, factors, variant)
                WH = factors.W @ factors.H
                quality.append(_quality(
                    rmse_test=np.sqrt(np.mean((WH - self.signal) ** 2)),
                    mrsa_mean=idf.match_and_score(self.W_true, factors.W).mean_mrsa,
                    rel_residual=np.linalg.norm(X - WH) / np.linalg.norm(X)))
            sample.quality = {k: float(np.mean([q[k] for q in quality])) for k in quality[0]}
            sample.problems += checks.quality_problems(sample.quality, self.reference)

        return sample, score


@contextmanager
def _probe_solve(calls):
    """Time the training ``sv.solve`` inside ``evaluate_fold`` and keep its factors."""
    inner = sv.solve

    def probe(*args, **kwargs):
        ts = clock()
        out = inner(*args, **kwargs)
        calls.append((clock() - ts, out))
        return out

    sv.solve = probe
    try:
        yield
    finally:
        sv.solve = inner


class Completion:
    """MovieLens-shaped ratings: file -> read_movielens -> split -> evaluate_fold."""

    fits_per_iteration = 1
    test_users = 50

    def __init__(self, name, shape, flavor, rank, max_outer, min_iterations):
        self.name, self.shape, self.flavor = name, shape, flavor
        self.rank, self.max_outer = rank, max_outer
        self.min_iterations = min_iterations

    def prepare(self, seed, workdir):
        data = rg.generate(*self.shape, seed=seed, rank=self.rank)
        if self.flavor == "tsv":
            self.path = os.path.join(workdir, "u.data")
            rg.write_u_data(self.path, data, seed)
        else:
            self.path = os.path.join(workdir, "ratings.dat")
            rg.write_ratings_dat(self.path, data)
        self.W_true = data.item_profiles
        self.item_counts = np.bincount(data.items, minlength=data.num_items)
        self.seed = seed
        self.reference = checks.load_reference(self.name)

    def _aligned_truth(self, ds, spec):
        """Rows of W_true in the fold's item order (first-seen ids, rare items dropped)."""
        gen_item = np.empty(ds.num_items, dtype=np.int64)
        for raw, dense in ds.item_map.items():
            gen_item[dense] = int(raw) - 1
        kept = gen_item[self.item_counts[gen_item] >= spec.min_ratings_per_item]
        return self.W_true[kept]

    def iteration(self, it):
        s = 1000 * self.seed + it
        spec = ev.SplitSpec(test_user_count=self.test_users, known_fraction=0.8,
                            min_ratings_per_item=5, seed=s)
        config = sv.SolverConfig(rank=self.rank, max_outer=self.max_outer,
                                 max_inner_W=1, max_inner_H=1, rel_tol=0.0,
                                 seed=s, record_trace=False)
        calls = []
        t0 = clock()
        ds = io.read_movielens(self.path, flavor=self.flavor)
        fold = ev.split(ds, spec)
        t1 = clock()
        with _probe_solve(calls):
            report = ev.evaluate_fold(fold, sv.BSSMF, config)
        t2 = clock()
        if len(calls) != 1:
            raise RuntimeError(f"evaluate_fold made {len(calls)} solve calls, expected 1")
        train, (factors, solve_report) = calls[0]
        outer = solve_report.outer_iterations
        sample = Sample(t1 - t0, train, t2 - t0, outer, outer)

        def score():
            variant = sv.ModelVariant.bssmf(BoundsVector.constant(fold.num_items, 1.0, 5.0))
            sample.problems += _factor_problems("bssmf", factors, variant)
            sample.problems += checks.disjoint_problems(fold.M_known, fold.M_heldout)
            M = fold.M_train
            x_norm = np.linalg.norm(fold.X_train[M.row_idx, M.col_idx])
            truth = self._aligned_truth(ds, spec)
            sample.quality = _quality(
                rmse_test=report.rmse_test,
                mrsa_mean=idf.match_and_score(truth, factors.W).mean_mrsa,
                rel_residual=report.rmse_train * np.sqrt(M.nnz) / x_norm)
            sample.problems += checks.quality_problems(sample.quality, self.reference)

        return sample, score


def _factor_problems(label, factors, variant):
    return [f"{label}: {p}" for p in
            checks.factor_problems(factors.W, factors.H, variant.kind, variant.bounds)]


WORKLOADS = {
    "synth-recovery": SynthRecovery,
    "dense-2k": Dense2k,
    # the first iteration of a process runs 10-30% slower here, so three give
    # two warm ones to take the fastest of
    "complete-100k": lambda: Completion("complete-100k", rg.ML_100K, "tsv", 10, 200, 3),
    # not in BENCHMARK.json (see the module docstring)
    "complete-1m": lambda: Completion("complete-1m", rg.ML_1M, "dat", 50, 2, 3),
}
