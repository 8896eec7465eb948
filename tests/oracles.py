"""Reference implementations that tests compare the library against."""

import itertools

import numpy as np


def brute_force_assignment(cost):
    """All-permutations minimum of an r x r assignment (test oracle, r <= 8)."""
    cost = np.asarray(cost)
    r = cost.shape[0]
    if r > 8:
        raise ValueError("brute force limited to r <= 8")
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(r)):
        c = sum(cost[i, perm[i]] for i in range(r))
        if c < best:
            best, best_perm = c, perm
    return best, list(best_perm)
