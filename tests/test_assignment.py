"""The exact assignment behind column matching, against a brute-force oracle
and against scipy's solver (imported here only)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bssmf.identifiability import _assignment, match_and_score, mrsa

from oracles import brute_force_assignment


@st.composite
def tied_costs(draw):
    """r x r integer costs from a few values, so most instances have many
    optimal assignments."""
    r = draw(st.integers(1, 7))
    values = draw(st.lists(st.integers(0, 3), min_size=r * r, max_size=r * r))
    return np.array(values, dtype=np.float64).reshape(r, r)


class TestAssignment:
    @settings(max_examples=300, deadline=None)
    @given(tied_costs())
    def test_optimal_total_matches_brute_force(self, cost):
        cols = _assignment(cost)
        assert sorted(cols.tolist()) == list(range(cost.shape[0]))
        best, _ = brute_force_assignment(cost)
        assert cost[np.arange(cost.shape[0]), cols].sum() == best

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 10, 20, 40, 60])
    def test_same_permutation_as_scipy(self, r):
        rng = np.random.default_rng(r)
        for _ in range(5):
            cost = rng.uniform(-3.0, 3.0, size=(r, r))
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(r))
            assert np.array_equal(_assignment(cost), cols)

    def test_non_square_cost_raises(self):
        with pytest.raises(ValueError, match="square"):
            _assignment(np.ones((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_raises(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _assignment(cost)


def scipy_match_and_score(W_true, W_est):
    """match_and_score as it was built on scipy's linear_sum_assignment."""
    r = W_true.shape[1]
    cost = np.array([[mrsa(W_true[:, i], W_est[:, j]) for j in range(r)] for i in range(r)])
    rows, cols = linear_sum_assignment(cost)
    perm = [int(cols[np.flatnonzero(rows == i)[0]]) for i in range(r)]
    per_col = [float(cost[i, perm[i]]) for i in range(r)]
    return perm, per_col, float(np.mean(per_col))


class TestMatchAndScore:
    def test_bit_identical_to_scipy_matching(self):
        rng = np.random.default_rng(11)
        for r in (1, 2, 4, 10, 25):
            W_true = rng.uniform(size=(30, r))
            W_est = W_true[:, rng.permutation(r)] + 0.1 * rng.standard_normal((30, r))
            for A, B in ((W_true, W_est), (W_true, rng.uniform(size=(30, r)))):
                perm, per_col, mean = scipy_match_and_score(A, B)
                rep = match_and_score(A, B)
                assert rep.permutation == perm
                assert rep.per_column_mrsa == per_col
                assert rep.mean_mrsa == mean

    def test_nan_column_raises(self):
        rng = np.random.default_rng(12)
        W = rng.uniform(size=(8, 3))
        W_est = W.copy()
        W_est[:, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            match_and_score(W, W_est)
