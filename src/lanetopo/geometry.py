"""Polyline primitives shared across the pipeline.

All geometry lives in a metric bird's-eye-view frame: x along the driving
direction, y to the left, z up, units in meters. Point order is semantic
(start -> end); reversing a polyline produces a distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Polyline:
    """Ordered sequence of 3D points, at least two, all finite."""

    pts: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"polyline points must have shape (n, 3), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("polyline needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline coordinates must be finite")
        object.__setattr__(self, "pts", pts)

    def __len__(self) -> int:
        return self.pts.shape[0]

    @property
    def xy(self) -> np.ndarray:
        return self.pts[:, :2]

    def reversed(self) -> Polyline:
        return Polyline(self.pts[::-1].copy())


@dataclass(frozen=True)
class PointSet2:
    """Ordered 2D points with a per-point validity flag."""

    points: np.ndarray
    validity: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        validity = np.asarray(self.validity, dtype=bool).reshape(-1)
        if points.shape[0] != validity.shape[0]:
            raise ValueError("validity must have one entry per point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "validity", validity)

    def __len__(self) -> int:
        return self.points.shape[0]

    def valid_points(self) -> np.ndarray:
        return self.points[self.validity]


def arc_length(p: Polyline) -> float:
    """Total length of the polyline: sum of consecutive segment norms."""
    seg = np.diff(p.pts, axis=0)
    return float(np.sum(np.linalg.norm(seg, axis=1)))


def _resample(points: np.ndarray, k: int) -> np.ndarray:
    """Arc-length-uniform resampling of an (n, d) point array to k points."""
    if k < 2:
        raise ValueError("resampling needs k >= 2")
    seg_len = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total == 0.0:
        return np.repeat(points[:1], k, axis=0)
    targets = np.linspace(0.0, total, k)
    out = np.empty((k, points.shape[1]), dtype=np.float64)
    for d in range(points.shape[1]):
        out[:, d] = np.interp(targets, cum, points[:, d])
    # endpoints are anchored exactly, immune to interpolation round-off
    out[0] = points[0]
    out[-1] = points[-1]
    return out


def resample_polyline(p: Polyline, k: int) -> Polyline:
    """Resample to k points uniformly spaced by arc length.

    Linear interpolation along the original segments; the first and last
    output points equal the input endpoints exactly. A zero-length polyline
    collapses to k copies of its single location.
    """
    return Polyline(_resample(p.pts, k))


def resample_points_2d(points: np.ndarray, k: int) -> np.ndarray:
    """2D variant of :func:`resample_polyline` on a raw (n, 2) array."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if points.shape[0] < 2:
        raise ValueError("need at least 2 points to resample")
    return _resample(points, k)


def integer_crossings(x: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every integer k in [lo, hi] that a segment x[s] -> x[s + 1] of the 1-D
    sequence ``x`` reaches, endpoints included: the segment indices, the
    integers (as floats) and the parameters t = (k - x[s]) / (x[s + 1] - x[s])
    in [0, 1], ordered by segment and then by k. Constant segments have none.
    The work is bounded by the segment count times hi - lo + 1, whatever x's
    range.
    """
    a, b = x[:-1], x[1:]
    first = np.maximum(np.ceil(np.minimum(a, b)), lo)
    last = np.minimum(np.floor(np.maximum(a, b)), hi)
    count = np.where(a == b, 0, np.maximum(last - first + 1, 0)).astype(np.int64)
    seg = np.repeat(np.arange(len(a)), count)
    k = first[seg] + (np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count))
    return seg, k, (k - a[seg]) / (b[seg] - a[seg])


def frechet_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Discrete Frechet distance between every curve of ``a`` (P, n, d) and
    every curve of ``b`` (G, m, d), as a (P, G) array.

    The Eiter-Mannila dynamic program
    ``f[i, j] = max(d[i, j], min(f[i-1, j], f[i-1, j-1], f[i, j-1]))``
    is swept along anti-diagonals ``i + j = k``: each of the n + m - 1 steps
    updates one diagonal of all P * G pairs at once. Only the two previous
    diagonals are kept, and the point distances of a diagonal are computed
    when it is reached, so the working set is O(P * G * n). ``max``/``min``
    are exact, so the result equals the scalar recurrence bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != b.shape[2]:
        raise ValueError(f"need (P, n, d) and (G, m, d) curve stacks, got {a.shape} and {b.shape}")
    n, m = a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise ValueError("curves need at least one point")
    # diagonal buffers indexed by row i + 1; slot 0 is a permanent +inf for
    # the missing row -1, and rows a diagonal does not reach stay +inf
    shape = (a.shape[0], b.shape[0], n + 1)
    prev2, prev1, cur = (np.full(shape, np.inf) for _ in range(3))
    a = a[:, None]
    b = b[None, :]
    cur[..., 1] = np.linalg.norm(a[:, :, 0] - b[:, :, 0], axis=-1)
    for k in range(1, n + m - 1):
        prev2, prev1, cur = prev1, cur, prev2
        lo, hi = max(0, k - m + 1), min(k, n - 1)
        # cells (i, k - i) for i = lo..hi, so j runs from k - lo down to k - hi
        d = np.linalg.norm(a[:, :, lo:hi + 1] - b[:, :, k - hi:k - lo + 1][:, :, ::-1], axis=-1)
        out = cur[..., lo + 1:hi + 2]
        np.minimum(prev1[..., lo:hi + 1], prev1[..., lo + 1:hi + 2], out=out)  # up, left
        np.minimum(out, prev2[..., lo:hi + 1], out=out)  # diagonal
        np.maximum(out, d, out=out)
    return cur[..., n].copy()


def discrete_frechet(a: Polyline, b: Polyline) -> float:
    """Discrete Frechet distance: the minimum over all order-preserving
    couplings of the two vertex sequences of the maximum paired point
    distance. Symmetric and non-negative; zero exactly when the point
    sequences are equal.
    """
    return float(frechet_matrix(a.pts[None], b.pts[None])[0, 0])


def filter_outliers(pts: PointSet2, threshold: float) -> PointSet2:
    """Invalidate points farther than ``threshold`` from both ordered neighbors.

    Single pass start to end: a point's neighbors are the nearest previous
    point that is still valid and the next point in order. A single-point set
    survives unchanged; an empty set stays empty.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    n = len(pts)
    if n == 0:
        return pts
    keep = pts.validity.copy()
    order = np.flatnonzero(keep)
    if order.size == 1:
        return PointSet2(pts.points, keep)
    valid = pts.points[order]
    step = np.diff(valid, axis=0)
    # gap[k] is the distance from valid point k to valid point k + 1, rounded
    # as np.linalg.norm rounds a 2-vector
    gap = np.sqrt(np.vecdot(step, step)).tolist()
    prev: int | None = None
    for pos in range(order.size):
        dmin = np.inf
        if prev == pos - 1:
            dmin = min(dmin, gap[prev])
        elif prev is not None:
            dmin = min(dmin, float(np.linalg.norm(valid[pos] - valid[prev])))
        if pos < len(gap):
            dmin = min(dmin, gap[pos])
        if dmin > threshold:
            keep[order[pos]] = False
        else:
            prev = pos
    return PointSet2(pts.points, keep)
