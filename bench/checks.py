"""Per-fit output checks. A fit with any problem counts as failed.

Quality figures are floored at a resolution before they are reported or
checked: on exact synthetic data the recovery error sits at floating-point
round-off (MRSA around 1e-7 degrees), where a harmless reordering of sums can
double it. Below the resolution a fit counts as exact.
"""

import json
import os

import numpy as np

RESOLUTION = {"rmse_test": 1e-6, "mrsa_mean": 1e-2, "rel_residual": 1e-6}
QUALITY_TOL = 0.25  # a fit may be this share worse than the reference
FEASIBLE_TOL = 1e-9

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference.json")


def floored(name, value):
    return max(float(value), RESOLUTION[name])


def load_reference(workload):
    with open(_REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def factor_problems(W, H, kind, bounds=None):
    """Finite factors; W in [a, b] (bssmf) or >= 0 (nmf); H on the simplex (bssmf)."""
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(H))):
        return ["non-finite factors"]
    problems = []
    if kind == "bssmf":
        slack = FEASIBLE_TOL * np.maximum(1.0, np.abs(bounds.upper))[:, None]
        if np.any(W < bounds.lower[:, None] - slack) or np.any(W > bounds.upper[:, None] + slack):
            problems.append("W outside [a, b]")
        if np.any(H < -FEASIBLE_TOL) or np.any(np.abs(H.sum(axis=0) - 1.0) > FEASIBLE_TOL):
            problems.append("H columns off the simplex")
    elif kind == "nmf":
        if np.any(W < 0) or np.any(H < 0):
            problems.append("negative NMF factor")
    return problems


def disjoint_problems(M_known, M_heldout):
    cols = M_known.cols
    known = M_known.row_idx * cols + M_known.col_idx
    held = M_heldout.row_idx * cols + M_heldout.col_idx
    if np.intersect1d(known, held).size:
        return ["known and held-out cells overlap"]
    return []


def quality_problems(quality, reference):
    """Each floored quality figure must be within QUALITY_TOL of its reference."""
    problems = []
    for name, value in quality.items():
        limit = (1.0 + QUALITY_TOL) * reference[name]
        if not np.isfinite(value) or value > limit:
            problems.append(f"{name} {value:.6g} above {limit:.6g}")
    return problems


def self_test():
    """Raise if the checks would pass a broken fit."""
    from bssmf.matrixcore import ObservationMask
    from bssmf.projections import BoundsVector

    bounds = BoundsVector.constant(3, 0.0, 1.0)
    W = np.full((3, 2), 0.5)
    H = np.full((2, 4), 0.5)
    clean = factor_problems(W, H, "bssmf", bounds)
    cases = {
        "NaN factor": factor_problems(np.where(W > 0, np.nan, W), H, "bssmf", bounds),
        "W above b": factor_problems(W + 1.0, H, "bssmf", bounds),
        "H off simplex": factor_problems(W, 2 * H, "bssmf", bounds),
        "negative NMF": factor_problems(-W, H, "nmf"),
        "overlapping masks": disjoint_problems(
            ObservationMask(3, 4, [0, 1], [0, 2], [1.0, 1.0]),
            ObservationMask(3, 4, [1], [2], [1.0])),
        "quality regression": quality_problems({"rmse_test": 2.0}, {"rmse_test": 1.0}),
    }
    missed = [case for case, problems in cases.items() if not problems]
    if clean or missed:
        raise RuntimeError(f"output checks are broken: clean fit flagged {clean}, "
                           f"bad fits passed {missed}")
