"""Reference implementations that tests compare the library against, and a
MatrixMarket writer that tests use to make reader fixtures."""

import itertools

import numpy as np

from bssmf.io_formats import MM_BANNER


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


def write_matrix_market(path, X, M):
    # zero-copy (m, n) views of the row and column numbers
    grids = (np.broadcast_to(g, X.shape) for g in np.indices(X.shape, sparse=True))
    ri, ci = (M.observed(g).ravel() for g in grids)
    vals = M.observed(X).ravel()
    with open(path, "w", encoding="utf-8") as f:
        f.write(MM_BANNER + "\n")
        f.write(f"{X.shape[0]} {X.shape[1]} {vals.size}\n")
        f.writelines(map("%d %d %.17g\n".__mod__,
                         zip((ri + 1).tolist(), (ci + 1).tolist(), vals.tolist())))
