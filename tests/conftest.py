import numpy as np
import pytest
from hypothesis import settings

from bssmf.matrixcore import ObservationMask

# pytest --hypothesis-profile=derandomized-10x: the same examples on every
# run, and ten times the default budget for a test that takes its budget from
# the profile, as TestReferenceSolver in test_solver.py does; CI runs that
# test under it
settings.register_profile("derandomized-10x", derandomize=True,
                          max_examples=10 * settings.default.max_examples)

# the 6x6 instance with a non-unique NMF but unique bounded factorization:
# X = W H with W^T = 3*A_{2/3}, H = 3*A_{1/3}, bounds [0, 3]
EXAMPLE_H = np.array(
    [
        [1.0, 3, 3, 1, 0, 0],
        [3.0, 1, 0, 0, 1, 3],
        [0.0, 0, 1, 3, 3, 1],
    ]
)
EXAMPLE_W = np.array(
    [
        [2.0, 3, 3, 2, 0, 0],
        [3.0, 2, 0, 0, 2, 3],
        [0.0, 0, 2, 3, 3, 2],
    ]
).T
EXAMPLE_X = EXAMPLE_W @ EXAMPLE_H


@pytest.fixture
def example6x6():
    return EXAMPLE_X, EXAMPLE_W, EXAMPLE_H


def random_mask(rng, m, n, density=0.5, weighted=False):
    cells = [(i, j) for i in range(m) for j in range(n) if rng.uniform() < density]
    if not cells:
        cells = [(0, 0)]
    w = rng.uniform(0.1, 1.0, size=len(cells)) if weighted else np.ones(len(cells))
    ri, ci = zip(*cells)
    return ObservationMask(m, n, ri, ci, w)
