"""Polyline arithmetic: lengths, resampling, Frechet distance, outlier rule."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lanetopo import geometry
from lanetopo.geometry import (
    Polyline,
    discrete_frechet,
    filter_outliers,
    frechet_matrix,
    resample_polyline,
)


def arc_length(p: Polyline) -> float:
    """Total length of the polyline: sum of consecutive segment norms."""
    seg = np.diff(p.pts, axis=0)
    return float(np.sum(np.linalg.norm(seg, axis=1)))


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_row_dp_for_every_small_shape_and_block_size(self, d, monkeypatch):
        """Every stack shape up to 4 x 4 curves of 12 points, with blocks of
        one diagonal, of a few and of all of them."""
        rng = np.random.default_rng(70 + d)
        for n, m, p_count, g_count in itertools.product(range(1, 13), range(1, 13), range(5), range(5)):
            if (n + m + p_count + g_count) % 2:
                # a coarse lattice: ties and zero distances
                a = rng.integers(-2, 3, size=(p_count, n, d)) * 0.5
                b = rng.integers(-2, 3, size=(g_count, m, d)) * 0.5
            else:
                a = rng.normal(size=(p_count, n, d))
                b = rng.normal(size=(g_count, m, d))
            want = reference_matrix(a, b)
            pairs = max(p_count * g_count, 1)
            for block in (1, 5 * pairs, 2**40):
                monkeypatch.setattr(geometry, "FRECHET_CELL_BLOCK", block)
                assert np.array_equal(frechet_matrix(a, b), want), (n, m, p_count, g_count, block)

    @pytest.mark.parametrize("d", [0, 1, 8, 9])
    def test_short_and_long_point_vectors(self, d):
        # 8 and more components round through np.linalg.norm's own pairwise sum
        rng = np.random.default_rng(80 + d)
        a = rng.normal(size=(3, 7, d)) * 1e3
        b = rng.normal(size=(2, 9, d)) * 1e3
        assert np.array_equal(frechet_matrix(a, b), reference_matrix(a, b))

    def test_working_set_is_bounded_at_full_size(self):
        """300 x 16 pairs of 50-point curves: the whole distance table would
        be 96 MB; the sweep keeps the diagonal buffers, the point copies and
        a few blocks."""
        rng = np.random.default_rng(63)
        a = rng.normal(size=(300, 50, 3))
        b = rng.normal(size=(16, 50, 3))
        frechet_matrix(a[:1], b[:1])  # the per-shape tables are cached
        tracemalloc.start()
        try:
            frechet_matrix(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def point_pairs(shape: tuple[int, ...]):
    """Two point arrays of ``shape`` at one scale from 1e-150 to 1e150, so
    that squared differences stay finite and are often of one size, where
    the summation order shows in the last bit. Zeros come with the
    mantissas."""
    return st.builds(
        lambda mantissas, e: tuple(mantissas * 10.0**e),
        arrays(np.float64, (2, *shape), elements=st.floats(-10.0, 10.0)),
        st.integers(-150, 149),
    )


def pair_cell_norms(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """The sweep's distance fold on two (cells, P, G, d) point blocks that
    pair cell by cell, as a (cells, P, G) array."""
    cells, p_count, g_count, d = xa.shape
    rows = np.arange(cells)

    def coordinate_major(x):
        return x.reshape(cells, p_count * g_count, d).transpose(2, 0, 1)

    out = geometry._pair_cell_distances(coordinate_major(xa), coordinate_major(xb), rows, rows)
    return out.reshape(cells, p_count, g_count)


class TestDistanceFold:
    """The bit-identity of :func:`frechet_matrix` rests on numpy's rounding
    of ``np.linalg.norm`` over short vectors; a numpy change shows here."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]))
    def test_single_row_rounds_as_norm(self, data, d):
        xa, xb = data.draw(point_pairs((d,)))
        got = pair_cell_norms(xa.reshape(1, 1, 1, d), xb.reshape(1, 1, 1, d))
        assert np.array_equal(got.reshape(()), np.linalg.norm(xa - xb, axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 3])),
    )
    def test_block_rounds_as_norm(self, data, shape):
        xa, xb = data.draw(point_pairs(shape))
        assert np.array_equal(pair_cell_norms(xa, xb), np.linalg.norm(xa - xb, axis=-1))

    def test_zeros(self):
        zero = np.zeros((2, 3, 1, 3))
        assert np.array_equal(pair_cell_norms(zero, -zero), np.zeros((2, 3, 1)))


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


def filter_outliers_scalar(points: np.ndarray, threshold: float) -> np.ndarray:
    """Reference keep mask: one np.linalg.norm per neighbor distance, walked
    over the points in order."""
    keep = np.ones(len(points), dtype=bool)
    if len(points) <= 1:
        return keep
    prev = None
    for i in range(len(points)):
        dmin = np.inf
        if prev is not None:
            dmin = min(dmin, float(np.linalg.norm(points[i] - points[prev])))
        if i + 1 < len(points):
            dmin = min(dmin, float(np.linalg.norm(points[i] - points[i + 1])))
        if dmin > threshold:
            keep[i] = False
        else:
            prev = i
    return keep


class TestFilterOutliers:
    def test_evenly_spaced_all_retained(self):
        pts = np.array([(0.5 * i, 0.0) for i in range(10)])
        keep = filter_outliers(pts, 1.5)
        assert keep.all()

    def test_isolated_point_removed(self):
        keep = filter_outliers(np.array([(0, 0), (0.5, 0), (5, 0)], dtype=float), 1.5)
        assert list(keep) == [True, True, False]

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
            keep = filter_outliers(pts, 1.5)
            assert list(np.flatnonzero(~keep)) == [far_idx]

    def test_never_removes_point_near_an_ordered_neighbor(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            pts = rng.uniform(-5, 5, size=(n, 2))
            keep = filter_outliers(pts, 1.5)
            for i in np.flatnonzero(~keep):
                near = []
                if i > 0:
                    near.append(np.linalg.norm(pts[i] - pts[i - 1]))
                if i < n - 1:
                    near.append(np.linalg.norm(pts[i] - pts[i + 1]))
                assert min(near) > 1.5

    def test_empty_and_single(self):
        assert len(filter_outliers(np.zeros((0, 2)), 1.5)) == 0
        assert filter_outliers(np.array([[3.0, 4.0]]), 1.5).all()

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            filter_outliers(np.array([(0, 0), (1, 0)], dtype=float), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        pts=st.integers(0, 12).flatmap(
            lambda n: arrays(np.float64, (n, 2), elements=st.floats(-6.0, 6.0))
        ),
        threshold=st.floats(0.05, 4.0),
    )
    @example(np.zeros((0, 2)), 1.5)
    @example(np.array([[3.0, 4.0]]), 1.5)
    @example(np.array([[0.0, 0.0], [9.0, 0.0]]), 1.5)
    # the far point is dropped, so the last point's previous kept one is not adjacent
    @example(np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [1.0, 0.0]]), 1.5)
    def test_matches_the_scalar_walk(self, pts, threshold):
        before = pts.copy()
        keep = filter_outliers(pts, threshold)
        assert np.array_equal(keep, filter_outliers_scalar(pts, threshold))
        assert np.array_equal(pts, before)
