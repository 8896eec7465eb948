import warnings

import numpy as np
import pytest

from bssmf.identifiability import (
    SyntheticSpec,
    generate_synthetic,
    match_and_score,
    mrsa,
    ssc_necessary_check,
    ssmf_gauge_transform,
    stack_for_theorem3,
)
from bssmf.projections import BoundsVector, project_simplex_columns

from conftest import EXAMPLE_H, EXAMPLE_W
from oracles import brute_force_assignment


class TestSSCNecessaryCheck:
    def test_example_h_passes(self):
        assert ssc_necessary_check(EXAMPLE_H).overall_pass

    def test_dense_fails(self):
        H = np.full((3, 6), 1.0 / 3.0)
        report = ssc_necessary_check(H)
        assert not report.overall_pass
        assert all(row.zero_count == 0 for row in report.per_row)

    def test_identity_passes(self):
        assert ssc_necessary_check(np.eye(4)).overall_pass

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a NaN threshold finds no zeros, so the identity would fail the check
        with pytest.raises(ValueError, match=f"tol_zero must be finite and >= 0, got {tol}"):
            ssc_necessary_check(np.eye(3), tol)

    def test_huge_tolerance_makes_every_entry_a_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e308 * max|H| overflowed a numpy scalar
            report = ssc_necessary_check(2.0 * np.eye(3), 1e308)
        assert [row.zero_count for row in report.per_row] == [3, 3, 3]

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError):
            ssc_necessary_check(np.ones((1, 5)))

    def test_invariance_to_scaling_and_permutation(self):
        rng = np.random.default_rng(0)
        H = EXAMPLE_H.copy()
        perm = rng.permutation(H.shape[1])
        scales = rng.uniform(0.5, 2.0, size=H.shape[1])
        H2 = H[:, perm] * scales
        assert ssc_necessary_check(H2).overall_pass == ssc_necessary_check(H).overall_pass


class TestStacking:
    def test_example_stacked_passes(self):
        b = BoundsVector.constant(6, 0, 3)
        S = stack_for_theorem3(EXAMPLE_W, b)
        assert ssc_necessary_check(S.T).overall_pass

    def test_all_at_lower_bound_fails(self):
        W = np.zeros((4, 3))
        b = BoundsVector.constant(4, 0, 2)
        S = stack_for_theorem3(W, b)
        assert not ssc_necessary_check(S.T).overall_pass

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        W = rng.uniform(1, 5, size=(5, 3))
        b = BoundsVector.constant(5, 1, 5)
        S = stack_for_theorem3(W, b)
        assert np.array_equal(S[:5] + b.lower[:, None], W)
        assert np.array_equal(b.upper[:, None] - S[5:], W)
        assert S.min() >= 0

    def test_infeasible_w_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            stack_for_theorem3(np.full((2, 2), 9.0), BoundsVector.constant(2, 0, 1))


class TestMRSA:
    def test_identical_zero(self):
        u = np.array([1.0, 2, 3])
        assert mrsa(u, u) == pytest.approx(0.0, abs=1e-5)

    def test_affine_invariance(self):
        u = np.array([1.0, -2, 3, 0.5])
        assert mrsa(u, 2 * u + 3) == pytest.approx(0.0, abs=1e-6)

    def test_negated_is_100(self):
        u = np.array([1.0, -2, 3, 0.5])
        assert mrsa(u, -u) == pytest.approx(100.0, abs=1e-6)

    def test_orthogonal_pair(self):
        # mean-removed cosine of u=[1,-1,0], v=[0,1,-1] is -0.5
        u = np.array([1.0, -1.0, 0.0])
        v = np.array([0.0, 1.0, -1.0])
        assert mrsa(u, v) == pytest.approx(100 / np.pi * np.arccos(-0.5), rel=1e-12)
        assert mrsa(u, v) == pytest.approx(66.6666666, abs=1e-5)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            a, b = mrsa(u, v), mrsa(v, u)
            assert a == pytest.approx(b, rel=1e-12)
            assert 0 <= a <= 100

    def test_constant_vector_error(self):
        with pytest.raises(ValueError):
            mrsa(np.ones(3), np.array([1.0, 2, 3]))


class TestMatchAndScore:
    def test_reversed_columns(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((6, 4))
        rep = match_and_score(W, W[:, ::-1])
        assert rep.permutation == [3, 2, 1, 0]
        assert rep.mean_mrsa == pytest.approx(0.0, abs=1e-5)

    def test_affine_transformed_columns(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((8, 3))
        W2 = W * np.array([2.0, 0.5, 3.0]) + np.array([1.0, -2.0, 0.3])
        assert match_and_score(W, W2).mean_mrsa == pytest.approx(0.0, abs=1e-5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        W1 = rng.standard_normal((6, 4))
        W2 = rng.standard_normal((6, 4))
        rep = match_and_score(W1, W2)
        cost = np.array([[mrsa(W1[:, i], W2[:, j]) for j in range(4)] for i in range(4)])
        best, _ = brute_force_assignment(cost)
        assert sum(rep.per_column_mrsa) == pytest.approx(best, rel=1e-12)

    def test_beats_identity_permutation(self):
        rng = np.random.default_rng(6)
        W1 = rng.standard_normal((7, 5))
        W2 = rng.standard_normal((7, 5))
        rep = match_and_score(W1, W2)
        ident_cost = sum(mrsa(W1[:, i], W2[:, i]) for i in range(5))
        assert sum(rep.per_column_mrsa) <= ident_cost + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_and_score(np.ones((3, 2)), np.ones((4, 2)))


class TestGaugeTransform:
    def test_alpha_zero_identity(self):
        rng = np.random.default_rng(10)
        W = rng.uniform(size=(5, 3))
        H = project_simplex_columns(rng.uniform(size=(3, 6)))
        W0, H0 = ssmf_gauge_transform(W, H, 0.0)
        assert np.allclose(W0, W) and np.allclose(H0, H)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_product_preserved(self, alpha):
        rng = np.random.default_rng(11)
        W = rng.uniform(size=(6, 3))
        H = project_simplex_columns(rng.uniform(size=(3, 8)))
        Wa, Ha = ssmf_gauge_transform(W, H, alpha)
        P = W @ H
        assert np.linalg.norm(P - Wa @ Ha) <= 1e-10 * np.linalg.norm(P)
        assert np.max(np.abs(Ha.sum(axis=0) - 1)) <= 1e-12

    def test_positive_alpha_breaks_scatteredness(self):
        rng = np.random.default_rng(12)
        H = project_simplex_columns(rng.uniform(size=(3, 10)))
        H[0, :3] = 0.0
        H = project_simplex_columns(H)
        _, Ha = ssmf_gauge_transform(np.ones((4, 3)), H, 0.5)
        assert Ha.min() > 0
        assert not ssc_necessary_check(Ha).overall_pass

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            ssmf_gauge_transform(np.ones((2, 2)), np.eye(2), -1.0)


class TestGenerateSynthetic:
    def test_defaults(self):
        W, H, X = generate_synthetic(SyntheticSpec(seed=0))
        assert W.shape == (100, 10) and H.shape == (10, 100)
        assert np.array_equal(X, W @ H)
        assert ssc_necessary_check(H).overall_pass
        assert np.max(np.abs(H.sum(axis=0) - 1)) <= 1e-12
        assert W.min() >= 0 and W.max() <= 1

    def test_p01_zero_no_pinned(self):
        W, _, _ = generate_synthetic(SyntheticSpec(m=30, n=30, r=4, seed=1))
        assert np.sum((W == 0) | (W == 1)) == 0

    def test_p01_fraction(self):
        spec = SyntheticSpec(m=50, n=50, r=6, p01=0.30, seed=2)
        W, _, _ = generate_synthetic(spec)
        pinned = int(np.sum((W == 0) | (W == 1)))
        assert abs(pinned - 0.30 * 50 * 6) <= 1

    @pytest.mark.parametrize("field, value", [
        ("m", 0), ("m", -5), ("n", 0), ("r", 1), ("r", 0), ("r", 11),
        ("h_zero_fraction", -0.1), ("h_zero_fraction", 1.5), ("h_zero_fraction", np.nan),
        ("p01", -0.1), ("p01", 2.0), ("p01", np.nan),
    ])
    def test_spec_it_cannot_build_raises(self, field, value):
        spec = SyntheticSpec(m=10, n=12, r=3, seed=1)
        setattr(spec, field, value)
        with pytest.raises(ValueError, match=field if field != "n" else "size"):
            generate_synthetic(spec)

    def test_rank_up_to_min_size_builds(self):
        W, H, X = generate_synthetic(SyntheticSpec(m=4, n=4, r=2, seed=0))
        assert W.shape == (4, 2) and H.shape == (2, 4)
        W, H, X = generate_synthetic(SyntheticSpec(m=6, n=30, r=6, h_zero_fraction=0.6,
                                                   p01=1.0, seed=0))
        assert W.shape == (6, 6) and np.all((W == 0) | (W == 1))
