import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssmf.matrixcore import ShapeError
from bssmf.projections import (
    BoundsVector,
    project_box,
    project_simplex_columns,
    simplex_projection_oracle,
)
from bssmf.solver import ModelVariant


def sort_argmax_rule(v):
    """Threshold of one column by the sort rule as it was written before the
    threshold became a max: tau = g(k) for the largest k with s_k - g(k) > 0,
    found by an argmax over the reversed test. Returns tau and the prefix sums."""
    s = np.sort(v)[::-1]
    c = np.cumsum(s)
    g = (c - 1.0) / np.arange(1, v.size + 1)
    k = v.size - np.argmax((s - g > 0)[::-1])
    return g[k - 1], c


@st.composite
def simplex_inputs(draw):
    """r x n columns, all free, all tied or all on the simplex, each shifted by
    one offset of up to 1e6 in size."""
    r, n = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["free", "ties", "on simplex"]))
    if kind == "free":
        cells = st.floats(-10, 10)
    elif kind == "ties":
        cells = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    else:
        cells = st.floats(0, 1)
    V = np.array(draw(st.lists(cells, min_size=r * n, max_size=r * n))).reshape(r, n)
    if kind == "on simplex":
        V[:, V.sum(axis=0) == 0] = 1.0  # an all-zero column becomes the centre
        V /= V.sum(axis=0)
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]) | st.floats(-1e6, 1e6))
    return V + offset


class TestBitIdentity:
    """The two-ufunc clamp equals np.clip, and the nmf W projection the clamp at 0."""

    bound_kinds = st.sampled_from(["finite", "degenerate", "no lower", "no upper", "unbounded"])

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 5))
    def test_project_box_equals_clip(self, data, m, r):
        lower, upper = np.empty(m), np.empty(m)
        for i in range(m):
            a, b = sorted(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)))
            kind = data.draw(self.bound_kinds)
            if kind == "degenerate":
                b = a
            lower[i] = -np.inf if kind in ("no lower", "unbounded") else a
            upper[i] = np.inf if kind in ("no upper", "unbounded") else b
        cells = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0])
        V = np.array(data.draw(st.lists(cells, min_size=m * r, max_size=m * r))).reshape(m, r)
        got = project_box(V, BoundsVector(lower, upper))
        want = np.clip(V, lower[:, None], upper[:, None])
        assert np.array_equal(got, want, equal_nan=True)
        # bit for bit, NaN payloads included, except the sign of a zero: on a
        # tie np.clip keeps either operand depending on the loop it runs
        same_bits = got.view(np.int64) == want.view(np.int64)
        assert np.all(same_bits | (want == 0))

    @settings(max_examples=200, deadline=None)
    @given(simplex_inputs() | st.builds(
        lambda seed, r, n: np.random.default_rng(seed).standard_normal((r, n)),
        st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 300)))
    def test_simplex_prefix_sums_are_cumsums(self, V):
        """The row-by-row prefix sums make np.cumsum's additions in its order."""
        r = V.shape[0]
        G = np.cumsum(np.sort(V, axis=0)[::-1], axis=0)
        want = np.maximum(V - ((G - 1.0) / np.arange(1, r + 1)[:, None]).max(axis=0), 0.0)
        if r == 1:
            want = np.ones_like(V)
        assert project_simplex_columns(V).tobytes() == want.tobytes()

    def test_nmf_project_W_is_maximum_with_zero(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((6, 4))
        W[0, :] = [np.nan, -0.0, np.inf, -np.inf]
        got = ModelVariant.nmf(6).project_W(W)
        assert got.tobytes() == np.maximum(W, 0.0).tobytes()
        assert got.tobytes() == project_box(W, BoundsVector.nonnegative(6)).tobytes()


class TestBoundsVector:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundsVector([1.0, 0.0], [0.0, 1.0])

    def test_crossed_bounds_name_row_and_values(self):
        # the first crossed row, with both of its values
        with pytest.raises(ValueError, match=r"^lower bound 2\.5 > upper bound -1\.0 at row 1$"):
            BoundsVector([0.0, 2.5, 7.0], [1.0, -1.0, 3.0])

    def test_degenerate_rows_flagged(self):
        b = BoundsVector([0.0, 2.0], [1.0, 2.0])
        assert list(b.degenerate_rows()) == [1]

    def test_infinite_bounds(self):
        b = BoundsVector.nonnegative(3)
        assert not b.is_finite
        assert BoundsVector.constant(3, 0, 1).is_finite


class TestProjectBox:
    def test_identity_when_inside(self):
        V = np.array([[0.5], [2.0]])
        b = BoundsVector([0.0, 0.0], [3.0, 3.0])
        assert np.array_equal(project_box(V, b), V)

    def test_clamp(self):
        V = np.array([[-1.0], [4.0]])
        b = BoundsVector([0.0, 0.0], [3.0, 3.0])
        assert np.array_equal(project_box(V, b), np.array([[0.0], [3.0]]))

    def test_unbounded_is_identity(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((4, 3))
        assert np.array_equal(project_box(V, BoundsVector.unbounded(4)), V)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((5, 4)) * 10
        b = BoundsVector.constant(5, -1, 1)
        P = project_box(V, b)
        assert np.array_equal(project_box(P, b), P)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            project_box(np.ones((3, 2)), BoundsVector.constant(4, 0, 1))
        with pytest.raises(ShapeError, match="m x r"):
            project_box(np.ones(4), BoundsVector.constant(4, 0, 1))

    def test_one_bounds_at_changing_ranks(self):
        # the m x r bounds kept for one rank must not serve another
        rng = np.random.default_rng(2)
        lower = rng.uniform(-2, 0, 6)
        b = BoundsVector(lower, lower + 1.5)
        for r in (3, 5, 3, 1):
            V = rng.standard_normal((6, r)) * 3
            assert np.array_equal(project_box(V, b), np.clip(V, b.lower[:, None],
                                                             b.upper[:, None]))

    def test_bounds_are_read_only_copies(self):
        lower, upper = np.zeros(3), np.ones(3)
        b = BoundsVector(lower, upper)
        lower[0], upper[0] = 5.0, 9.0
        assert np.array_equal(b.lower, np.zeros(3)) and np.array_equal(b.upper, np.ones(3))
        with pytest.raises(ValueError, match="read-only"):
            b.lower[0] = 0.5


class TestSimplexProjection:
    def test_vertex_fixed(self):
        v = np.array([[1.0], [0.0], [0.0]])
        assert np.array_equal(project_simplex_columns(v), v)

    def test_equal_shift_case(self):
        out = project_simplex_columns(np.array([[0.5], [1.5]]))
        assert np.allclose(out, [[0.0], [1.0]])

    def test_dominant_coordinate(self):
        out = project_simplex_columns(np.array([[3.0], [1.0], [0.2]]))
        assert np.allclose(out, [[1.0], [0.0], [0.0]])

    def test_r1_singleton(self):
        out = project_simplex_columns(np.array([[5.0, -2.0]]))
        assert np.array_equal(out, np.ones((1, 2)))

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = rng.integers(2, 9)
            v = rng.uniform(-2, 2, size=r)
            got = project_simplex_columns(v[:, None])[:, 0]
            want = simplex_projection_oracle(v)
            assert np.allclose(got, want, atol=1e-10)

    def test_output_feasible(self):
        rng = np.random.default_rng(3)
        V = rng.uniform(-5, 5, size=(6, 50))
        P = project_simplex_columns(V)
        assert P.min() >= 0.0
        assert np.all(np.abs(P.sum(axis=0) - 1.0) <= 1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        V = rng.uniform(-5, 5, size=(5, 20))
        P = project_simplex_columns(V)
        P2 = project_simplex_columns(P)
        assert np.allclose(P, P2, atol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.uniform(-3, 3, size=6)
            v = rng.uniform(-3, 3, size=6)
            pu = project_simplex_columns(u[:, None])[:, 0]
            pv = project_simplex_columns(v[:, None])[:, 0]
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            v = rng.uniform(-3, 3, size=5)
            c = rng.uniform(-10, 10)
            p1 = project_simplex_columns(v[:, None])[:, 0]
            p2 = project_simplex_columns((v + c)[:, None])[:, 0]
            assert np.allclose(p1, p2, atol=1e-12)


    @settings(max_examples=150, deadline=None)
    @given(simplex_inputs())
    def test_matches_oracle_property(self, V):
        """The oracle picks its support by comparing squared distances d, so it
        finds the projection only to within sqrt(64 r eps d); it runs on
        v - max(v), which has the same projection up to the rounding of the
        shift, so that d stays small whatever the offset."""
        P = project_simplex_columns(V)
        r = V.shape[0]
        rounding = 4 * r * np.spacing(max(1.0, float(np.max(np.abs(V)))))
        assert P.min() >= 0.0
        assert np.all(np.abs(P.sum(axis=0) - 1.0) <= r * rounding)
        for j in range(V.shape[1]):
            u = V[:, j] - V[:, j].max()
            want = simplex_projection_oracle(u)
            d = max(1.0, float(np.sum((want - u) ** 2)))
            atol = np.sqrt(64 * r * np.finfo(float).eps * d) + rounding
            assert np.allclose(P[:, j], want, rtol=0, atol=atol)

    @settings(max_examples=500, deadline=None)
    @given(simplex_inputs())
    def test_max_threshold_matches_sort_argmax_rule(self, V):
        """Column by column, the output is what the sort-and-argmax threshold
        gives when the two thresholds agree to within 4 ulps of the largest
        prefix sum. Both are entries of the same array (c_k - 1)/k; near
        c_k = 1 that subtraction cancels, so the ulps of tau itself are no
        measure of the rounding in it."""
        P = project_simplex_columns(V)
        for j in range(V.shape[1]):
            v = V[:, j]
            tau, c = sort_argmax_rule(v)
            d = 4 * np.spacing(np.max(np.abs(c)))
            tol = d + np.spacing(np.abs(v - tau) + d)
            assert np.all(np.abs(P[:, j] - np.maximum(v - tau, 0.0)) <= tol), (v, tau)

    def test_nan_column_gives_nan(self):
        rng = np.random.default_rng(8)
        V = rng.uniform(-2, 2, size=(4, 3))
        V[1, 1] = np.nan
        P = project_simplex_columns(V)
        assert np.all(np.isnan(P[:, 1]))
        for j in (0, 2):
            assert np.array_equal(P[:, j], project_simplex_columns(V[:, j]))


class TestOracle:
    def test_on_simplex_fixed(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(simplex_projection_oracle(v), v, atol=1e-12)

    def test_dominant(self):
        assert np.allclose(simplex_projection_oracle([10.0, -10.0]), [1.0, 0.0])

    def test_refuses_large_r(self):
        with pytest.raises(ValueError):
            simplex_projection_oracle(np.ones(13))
