"""Polyline primitives shared across the pipeline.

All geometry lives in a metric bird's-eye-view frame: x along the driving
direction, y to the left, z up, units in meters. Point order is semantic
(start -> end); reversing a polyline produces a distinct value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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


def resample_points(points: np.ndarray, k: int) -> np.ndarray:
    """Arc-length-uniform resampling of an (n, d) float64 point array to k
    points, as :func:`resample_polyline` does; the points are not checked,
    so they should be a valid polyline's."""
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
    return Polyline(resample_points(p.pts, k))


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


# the most pair-cells (one point pair of one curve pair) whose distances
# frechet_matrix holds at once, unless a single diagonal has more
FRECHET_CELL_BLOCK = 2**16


@lru_cache(maxsize=32)
def _diagonal_cells(
    n: int, m: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], np.ndarray, np.ndarray]:
    """The cells (i, j) of an n x m coupling grid in anti-diagonal order
    k = i + j, i ascending within a diagonal: each diagonal's lowest and
    highest row, the start of each diagonal's run of cells (n + m entries,
    the last is the cell count), and every cell's i and j."""
    k = np.arange(n + m - 1)
    lo, hi = np.maximum(0, k - m + 1), np.minimum(k, n - 1)
    count = hi - lo + 1
    starts = np.concatenate([[0], np.cumsum(count)])
    cell_i = np.repeat(lo - starts[:-1], count) + np.arange(starts[-1])
    cell_j = np.repeat(k, count) - cell_i
    cell_i.flags.writeable = cell_j.flags.writeable = False
    return tuple(lo.tolist()), tuple(hi.tolist()), tuple(starts.tolist()), cell_i, cell_j


def _pair_cell_distances(
    ax: np.ndarray, bx: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> np.ndarray:
    """Distances between the points at rows ``rows_a`` of ``ax`` and rows
    ``rows_b`` of ``bx``, coordinate-major stacks (d, n, K) and (d, m, K)
    with one column per curve pair, as a (len(rows_a), K) array.

    They round as ``np.linalg.norm(..., axis=-1)`` rounds the difference
    vectors. For 0 < d < 8 numpy sums the squared differences left to right
    and takes ``np.sqrt``, which this fold does one coordinate at a time;
    other d go through ``np.linalg.norm`` itself.
    """
    d = len(ax)
    if not 0 < d < 8:
        diff = np.take(ax, rows_a, axis=1) - np.take(bx, rows_b, axis=1)
        # norm's sum over 8 or more components depends on the memory
        # layout, so the vectors are made contiguous, as in (..., d) arrays
        return np.linalg.norm(np.moveaxis(diff, 0, -1).copy(), axis=-1)
    total = None
    for xa, xb in zip(ax, bx):
        diff = np.take(xa, rows_a, axis=0)
        diff -= np.take(xb, rows_b, axis=0)
        diff *= diff
        total = diff if total is None else np.add(total, diff, out=total)
    return np.sqrt(total, out=total)


def frechet_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Discrete Frechet distance between every curve of ``a`` (P, n, d) and
    every curve of ``b`` (G, m, d), as a (P, G) array.

    The Eiter-Mannila dynamic program
    ``f[i, j] = max(d[i, j], min(f[i-1, j], f[i-1, j-1], f[i, j-1]))``
    is swept along anti-diagonals ``i + j = k``: each of the n + m - 1 steps
    updates one diagonal of all P * G pairs with three in-place ufuncs on
    contiguous row slices of three (n + 1, P * G) diagonal buffers, the
    current one and the two it reads.

    The point distances are laid out pairs-minor, one row of P * G per
    cell, with the cells in diagonal order (:func:`_diagonal_cells`, built
    once per (n, m)), so each diagonal is one contiguous run of rows. They
    are computed a block of whole diagonals at a time, when the sweep
    reaches it, from coordinate-major copies of the points with one column
    per pair. A block holds at most ``FRECHET_CELL_BLOCK`` pair-cells, or
    one diagonal if a diagonal has more. So the working set is the buffers
    and the point copies, 8 * P * G * (3 * (n + 1) + d * (n + m)) bytes,
    plus a few block-sized arrays; a whole distance table would take
    8 * P * G * n * m bytes (96 MB for 300 x 16 pairs of 50-point curves).

    The distances round as ``np.linalg.norm`` rounds them
    (:func:`_pair_cell_distances`) and ``max``/``min`` are exact, so the
    result equals the scalar recurrence bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[2] != b.shape[2]:
        raise ValueError(f"need (P, n, d) and (G, m, d) curve stacks, got {a.shape} and {b.shape}")
    n, m = a.shape[1], b.shape[1]
    if n == 0 or m == 0:
        raise ValueError("curves need at least one point")
    n_a, n_b = a.shape[0], b.shape[0]
    pairs = n_a * n_b
    if pairs == 0:
        return np.empty((n_a, n_b))
    lo, hi, starts, cell_i, cell_j = _diagonal_cells(n, m)
    # coordinate-major points, (d, n, P * G) and (d, m, P * G): column
    # p * G + g holds curve p of a and curve g of b
    ax = np.repeat(a.transpose(2, 1, 0), n_b, axis=2)
    bx = np.tile(b.transpose(2, 1, 0), (1, 1, n_a))
    block_cells = max(1, FRECHET_CELL_BLOCK // pairs)
    # diagonal buffers indexed by row i + 1; slot 0 is a permanent +inf for
    # the missing row -1, and rows a diagonal does not reach stay +inf
    prev2, prev1, cur = np.full((3, n + 1, pairs), np.inf)
    block_end = 0
    for k in range(n + m - 1):
        if k == block_end:
            first = starts[k]
            block_end = max(k + 1, bisect_right(starts, first + block_cells) - 1)
            cells = slice(first, starts[block_end])
            dist = _pair_cell_distances(ax, bx, cell_i[cells], cell_j[cells])
        prev2, prev1, cur = prev1, cur, prev2
        d = dist[starts[k] - first:starts[k + 1] - first]
        out = cur[lo[k] + 1:hi[k] + 2]
        if k == 0:
            out[...] = d
            continue
        # cells (i, k - i) for i = lo..hi: up, left, then diagonal neighbour
        np.minimum(prev1[lo[k]:hi[k] + 1], prev1[lo[k] + 1:hi[k] + 2], out=out)
        np.minimum(out, prev2[lo[k]:hi[k] + 1], out=out)
        np.maximum(out, d, out=out)
    return cur[n].reshape(n_a, n_b).copy()


def discrete_frechet(a: Polyline, b: Polyline) -> float:
    """Discrete Frechet distance: the minimum over all order-preserving
    couplings of the two vertex sequences of the maximum paired point
    distance. Symmetric and non-negative; zero exactly when the point
    sequences are equal.
    """
    return float(frechet_matrix(a.pts[None], b.pts[None])[0, 0])


def filter_outliers(points: np.ndarray, threshold: float) -> np.ndarray:
    """Keep mask (m,) of the ordered (m, 2) ``points``: False for each point
    farther than ``threshold`` from both ordered neighbors.

    Single pass start to end: a point's neighbors are the nearest previous
    point that is still kept and the next point in order. A single point is
    kept; an empty array gives an empty mask.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    m = len(points)
    keep = np.ones(m, dtype=bool)
    if m <= 1:
        return keep
    step = np.diff(points, axis=0)
    # gap[k] is the distance from point k to point k + 1, rounded as
    # np.linalg.norm rounds a 2-vector
    gap = np.sqrt(np.vecdot(step, step)).tolist()
    prev: int | None = None
    for pos in range(m):
        dmin = np.inf
        if prev == pos - 1:
            dmin = min(dmin, gap[prev])
        elif prev is not None:
            dmin = min(dmin, float(np.linalg.norm(points[pos] - points[prev])))
        if pos < len(gap):
            dmin = min(dmin, gap[pos])
        if dmin > threshold:
            keep[pos] = False
        else:
            prev = pos
    return keep
