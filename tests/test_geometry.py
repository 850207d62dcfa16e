"""Polyline arithmetic: lengths, resampling, Frechet distance, outlier rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lanetopo.geometry import (
    PointSet2,
    Polyline,
    arc_length,
    discrete_frechet,
    filter_outliers,
    frechet_matrix,
    resample_polyline,
)


def frechet_by_coupling_enumeration(a: np.ndarray, b: np.ndarray) -> float:
    """Independent oracle: walk every monotone coupling of the two sequences
    explicitly and take the minimum over couplings of the maximum distance."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    n, m = d.shape
    best = [np.inf]

    def walk(i, j, cur):
        cur = max(cur, d[i, j])
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], cur)
            return
        if i + 1 < n:
            walk(i + 1, j, cur)
        if j + 1 < m:
            walk(i, j + 1, cur)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cur)

    walk(0, 0, 0.0)
    return best[0]


def frechet_by_row_dp(a: np.ndarray, b: np.ndarray) -> float:
    """Reference: the Eiter-Mannila dynamic program as a scalar row sweep.

    Unlike the enumeration oracle it reaches 50-point curves."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    n, m = d.shape
    f = np.empty((n, m), dtype=np.float64)
    f[0, 0] = d[0, 0]
    for j in range(1, m):
        f[0, j] = max(f[0, j - 1], d[0, j])
    for i in range(1, n):
        f[i, 0] = max(f[i - 1, 0], d[i, 0])
        row = f[i]
        prev = f[i - 1]
        for j in range(1, m):
            row[j] = max(d[i, j], min(prev[j], prev[j - 1], row[j - 1]))
    return float(f[-1, -1])


def reference_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((len(a), len(b)))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i, j] = frechet_by_row_dp(x, y)
    return out


class TestPolyline:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0, 0.0]]))

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))

    def test_reversal_is_distinct(self):
        p = Polyline(np.array([[0, 0, 0], [1, 0, 0], [3, 1, 0]], dtype=float))
        r = p.reversed()
        assert not np.array_equal(p.pts, r.pts)
        assert np.array_equal(p.pts, r.reversed().pts)


class TestArcLength:
    def test_three_four_five(self):
        p = Polyline(np.array([[0, 0, 0], [3, 4, 0]], dtype=float))
        assert arc_length(p) == pytest.approx(5.0)

    def test_collinear(self):
        p = Polyline(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float))
        assert arc_length(p) == pytest.approx(2.0)

    def test_matches_per_segment_summation(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        total = sum(
            float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(5)
        )
        assert arc_length(Polyline(pts)) == pytest.approx(total, abs=1e-12)


class TestResample:
    def test_uniform_spacing_on_straight_segment(self):
        p = Polyline(np.array([[0, 0, 0], [10, 0, 0]], dtype=float))
        out = resample_polyline(p, 11)
        assert np.allclose(out.pts[:, 0], np.arange(11.0))
        assert np.allclose(out.pts[:, 1:], 0.0)

    def test_k2_returns_endpoints(self):
        rng = np.random.default_rng(3)
        p = Polyline(rng.normal(size=(9, 3)))
        out = resample_polyline(p, 2)
        assert np.array_equal(out.pts[0], p.pts[0])
        assert np.array_equal(out.pts[1], p.pts[-1])

    def test_right_angle_midpoint_lands_on_corner(self):
        # total length 2; the arc-length midpoint is the corner itself,
        # verified against a brute-force dense parameterization
        p = Polyline(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=float))
        out = resample_polyline(p, 3)
        dense = np.concatenate(
            [
                np.stack([np.linspace(0, 1, 5001), np.zeros(5001), np.zeros(5001)], axis=1),
                np.stack([np.ones(5000), np.linspace(0, 1, 5001)[1:], np.zeros(5000)], axis=1),
            ]
        )
        mid_idx = 5000  # halfway along the dense parameterization
        assert np.allclose(out.pts[1], dense[mid_idx], atol=1e-9)
        assert np.allclose(out.pts, [[0, 0, 0], [1, 0, 0], [1, 1, 0]], atol=1e-12)

    def test_idempotent_on_uniform_polylines(self):
        # uniform means equal consecutive segment lengths; build those directly
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(3, 12))
            step = float(rng.uniform(0.5, 2.0))
            dirs = rng.normal(size=(k - 1, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            uniform = Polyline(
                np.concatenate([np.zeros((1, 3)), np.cumsum(step * dirs, axis=0)])
            )
            again = resample_polyline(uniform, k)
            assert np.max(np.abs(again.pts - uniform.pts)) < 1e-9

    def test_degenerate_zero_length(self):
        p = Polyline(np.array([[2, 3, 1], [2, 3, 1]], dtype=float))
        out = resample_polyline(p, 5)
        assert np.array_equal(out.pts, np.tile([2, 3, 1], (5, 1)))

    def test_k_below_two_rejected(self):
        p = Polyline(np.array([[0, 0, 0], [1, 0, 0]], dtype=float))
        with pytest.raises(ValueError):
            resample_polyline(p, 1)


class TestDiscreteFrechet:
    def test_identity(self):
        p = Polyline(np.array([[0, 0, 0], [1, 2, 0], [4, 1, 0]], dtype=float))
        assert discrete_frechet(p, p) == 0.0

    def test_constant_offset(self):
        a = Polyline(np.array([[0, 0, 0], [1, 0, 0]], dtype=float))
        b = Polyline(np.array([[0, 1, 0], [1, 1, 0]], dtype=float))
        assert discrete_frechet(a, b) == pytest.approx(1.0)

    def test_matches_coupling_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            na, nb = rng.integers(2, 7, size=2)
            a = rng.normal(size=(na, 3))
            b = rng.normal(size=(nb, 3))
            dp = discrete_frechet(Polyline(a), Polyline(b))
            assert dp == frechet_by_coupling_enumeration(a, b)

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = Polyline(rng.normal(size=(5, 3)))
            b = Polyline(rng.normal(size=(4, 3)))
            assert discrete_frechet(a, b) == discrete_frechet(b, a)
            assert discrete_frechet(a, b) > 0.0
            assert discrete_frechet(a, a) == 0.0


class TestFrechetMatrix:
    @staticmethod
    def resampled(rng, count: int, k: int = 50) -> np.ndarray:
        lines = []
        for _ in range(count):
            n = int(rng.integers(2, 12))
            pts = np.cumsum(rng.normal(scale=2.0, size=(n, 3)), axis=0)
            lines.append(resample_polyline(Polyline(pts), k).pts)
        return np.array(lines).reshape(count, k, 3)

    @pytest.mark.parametrize("p_count", [1, 3, 7])
    @pytest.mark.parametrize("g_count", [1, 3, 7])
    def test_equals_row_dp_on_50_point_curves(self, p_count, g_count):
        rng = np.random.default_rng(1000 + 10 * p_count + g_count)
        a = self.resampled(rng, p_count)
        b = self.resampled(rng, g_count)
        out = frechet_matrix(a, b)
        assert out.shape == (p_count, g_count)
        assert np.array_equal(out, reference_matrix(a, b))

    def test_unequal_lengths(self):
        rng = np.random.default_rng(61)
        for n, m in [(1, 5), (5, 1), (2, 9), (13, 4), (50, 17)]:
            a = rng.normal(size=(3, n, 3))
            b = rng.normal(size=(2, m, 3))
            assert np.array_equal(frechet_matrix(a, b), reference_matrix(a, b))
            assert np.array_equal(frechet_matrix(b, a), reference_matrix(a, b).T)

    def test_zero_length_and_repeated_points(self):
        rng = np.random.default_rng(62)
        point = rng.normal(size=3)
        zero = np.tile(point, (50, 1))
        repeated = np.repeat(rng.normal(size=(5, 3)), 10, axis=0)
        line = self.resampled(rng, 1)[0]
        a = np.stack([zero, repeated, line])
        out = frechet_matrix(a, a)
        assert np.array_equal(out, reference_matrix(a, a))
        assert np.all(np.diag(out) == 0.0)
        # a curve against a single location: its farthest point
        far = np.max(np.linalg.norm(line - point, axis=1))
        assert out[2, 0] == far

    def test_empty_sets(self):
        a = np.zeros((0, 50, 3))
        b = np.ones((4, 30, 3))
        assert frechet_matrix(a, b).shape == (0, 4)
        assert frechet_matrix(b, a).shape == (4, 0)
        assert frechet_matrix(a, a).shape == (0, 0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            frechet_matrix(np.zeros((2, 5, 3)), np.zeros((2, 5, 2)))
        with pytest.raises(ValueError):
            frechet_matrix(np.zeros((5, 3)), np.zeros((2, 5, 3)))
        with pytest.raises(ValueError):
            frechet_matrix(np.zeros((2, 0, 3)), np.zeros((2, 5, 3)))


finite_points = arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.just(3)),
    elements=st.floats(-100.0, 100.0, allow_nan=False),
)


class TestPolylineProperties:
    @settings(max_examples=60, deadline=None)
    @given(pts=finite_points, k=st.integers(2, 16))
    def test_resample_anchors_endpoints_and_preserves_length_bound(self, pts, k):
        p = Polyline(pts)
        out = resample_polyline(p, k)
        assert len(out) == k
        if arc_length(p) == 0.0:  # degenerate: collapses to the first location
            assert np.array_equal(out.pts, np.tile(p.pts[0], (k, 1)))
            return
        assert np.array_equal(out.pts[0], p.pts[0])
        assert np.array_equal(out.pts[-1], p.pts[-1])
        # piecewise-linear resampling can only shorten the chain
        assert arc_length(out) <= arc_length(p) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(a=finite_points, b=finite_points)
    def test_frechet_symmetric_nonnegative(self, a, b):
        pa, pb = Polyline(a), Polyline(b)
        d = discrete_frechet(pa, pb)
        assert d >= 0.0
        assert d == discrete_frechet(pb, pa)
        assert discrete_frechet(pa, pa) == 0.0


class TestFilterOutliers:
    def _all_valid(self, pts):
        return PointSet2(np.asarray(pts, dtype=float), np.ones(len(pts), dtype=bool))

    def test_evenly_spaced_all_retained(self):
        pts = [(0.5 * i, 0.0) for i in range(10)]
        out = filter_outliers(self._all_valid(pts), 1.5)
        assert out.validity.all()

    def test_isolated_point_removed(self):
        out = filter_outliers(self._all_valid([(0, 0), (0.5, 0), (5, 0)]), 1.5)
        assert list(out.validity) == [True, True, False]

    def test_injected_far_point_is_the_only_removal(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(6, 11))
            xs = np.cumsum(rng.uniform(0.2, 1.0, size=n))
            pts = np.stack([xs, rng.uniform(-0.2, 0.2, size=n)], axis=1)
            # keep the injected point away from the ends so every other point
            # retains one near ordered neighbor
            far_idx = int(rng.integers(2, n - 2))
            pts[far_idx] += np.array([0.0, 50.0])
            # brute-force neighbor distances on the original ordering
            removed = []
            for i in range(n):
                dists = []
                if i > 0:
                    dists.append(np.linalg.norm(pts[i] - pts[i - 1]))
                if i < n - 1:
                    dists.append(np.linalg.norm(pts[i] - pts[i + 1]))
                if min(dists) > 1.5:
                    removed.append(i)
            assert removed == [far_idx]
            out = filter_outliers(PointSet2(pts, np.ones(n, dtype=bool)), 1.5)
            assert list(np.flatnonzero(~out.validity)) == [far_idx]

    def test_never_removes_point_near_an_ordered_neighbor(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            pts = rng.uniform(-5, 5, size=(n, 2))
            out = filter_outliers(PointSet2(pts, np.ones(n, dtype=bool)), 1.5)
            for i in np.flatnonzero(~out.validity):
                near = []
                if i > 0:
                    near.append(np.linalg.norm(pts[i] - pts[i - 1]))
                if i < n - 1:
                    near.append(np.linalg.norm(pts[i] - pts[i + 1]))
                assert min(near) > 1.5

    def test_empty_and_single(self):
        empty = PointSet2(np.zeros((0, 2)), np.zeros(0, dtype=bool))
        assert len(filter_outliers(empty, 1.5)) == 0
        single = PointSet2(np.array([[3.0, 4.0]]), np.array([True]))
        assert filter_outliers(single, 1.5).validity.all()

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            filter_outliers(self._all_valid([(0, 0), (1, 0)]), 0.0)
