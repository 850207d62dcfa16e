"""Points-guided instance masks and points-mask fusion.

Each centerline query is turned into a mask query (its embedding plus an
encoding of its predicted points), a dot-product mask head produces H x W
logits, and a soft-argmax readout regresses one sub-cell point per column
(and, for near-vertical lanes, one per row). Valid readout points are fused
back into the regressed polyline by outlier filtering, resampling, and
index-wise averaging. Mask queries, logits and readouts take a leading
instance axis n, so each head runs once over all instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bev import BevGrid, GridSpec, _run_rows, mlp_forward, sigmoid, softmax
from .geometry import Polyline, filter_outliers, resample_points
from .weights import MaskHeadWeights

AXIS_COLUMNS = "columns"
AXIS_ROWS = "rows"

# a readout point is valid above this existence probability
VALIDITY_THRESHOLD = 0.5
# fusion drops a valid point farther than this (m) from both its neighbors
OUTLIER_THRESHOLD = 1.5


@dataclass
class MaskPointReadout:
    """One point per column (or row): sub-cell coordinate, existence, direction.

    ``coords[j]`` is the fractional row index for column j (columns axis) or
    the fractional column index for row j (rows axis). ``direction`` >= 0.5
    means the point order follows increasing column (resp. row) index.
    """

    axis: str
    coords: np.ndarray
    existence: np.ndarray
    direction: float

    def __post_init__(self):
        if self.axis not in (AXIS_COLUMNS, AXIS_ROWS):
            raise ValueError(f"unknown axis {self.axis!r}")
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1)
        self.existence = np.asarray(self.existence, dtype=np.float64).reshape(-1)
        if self.coords.shape != self.existence.shape:
            raise ValueError("coords and existence must have the same length")


def encode_mask_query(q: np.ndarray, pts: np.ndarray, w: MaskHeadWeights) -> np.ndarray:
    """Mask queries q' for a batch of instances: a positional encoding of each
    instance's K points plus an encoding of its query.

    ``q`` is (n, c) and ``pts`` (n, k, 3); the result is (n, c). The point MLP
    runs on (n, k, 3), the concat MLP on the (n, k * c) per-point features and
    the query MLP on (n, c). Any leading axes work the same way, none included.
    """
    pts = np.asarray(pts, dtype=np.float64)
    per_point = mlp_forward(w.point_mlp, pts)  # (..., k, c)
    positional = mlp_forward(w.concat_mlp, per_point.reshape(*pts.shape[:-2], -1))
    return positional + mlp_forward(w.query_mlp, q)


def generate_mask(b: BevGrid, q_prime: np.ndarray) -> np.ndarray:
    """Dot-product mask head: per-cell logit = cell feature . mask query.

    ``q_prime`` (n, c) gives (n, h, w) logits from one (n, c) @ (c, h*w) GEMM,
    whose rows split over two threads when it is large.
    """
    q_prime = np.asarray(q_prime, dtype=np.float64)
    if q_prime.shape[-1:] != (b.c,):
        raise ValueError(f"mask queries must be (..., {b.c}), got {q_prime.shape}")
    queries, cells = q_prime.reshape(-1, b.c), b.flat()
    out = np.empty((len(queries), len(cells)))

    def run(rows):
        np.matmul(queries[rows], cells.T, out=out[rows])

    _run_rows(run, len(queries), len(cells))
    return out.reshape(*q_prime.shape[:-1], b.h, b.w)


def sample_mask_points(m: np.ndarray, axis: str) -> np.ndarray:
    """Soft-argmax one point per column (or per row) of mask logit maps.

    ``m`` is (n, h, w). Columns axis: coordinate j of instance i is
    sum_r r * softmax(m[i, :, j])[r], giving (n, w) values in [0, h-1]. Rows
    axis is the symmetric per-row readout, (n, h). Large calls split the
    instances over two threads.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError("mask must be at least 2D")
    h, w = m.shape[-2:]
    if axis == AXIS_COLUMNS:
        if h < 2:
            raise ValueError("columns readout needs at least 2 rows")
        size = w

        def readout(masks):
            return np.arange(h, dtype=np.float64) @ softmax(masks, axis=-2)
    elif axis == AXIS_ROWS:
        if w < 2:
            raise ValueError("rows readout needs at least 2 columns")
        size = h

        def readout(masks):
            return softmax(masks, axis=-1) @ np.arange(w, dtype=np.float64)
    else:
        raise ValueError(f"unknown axis {axis!r}")
    masks = m.reshape(-1, h, w)
    out = np.empty((len(masks), size))

    def run(rows):
        out[rows] = readout(masks[rows])

    _run_rows(run, len(masks), h * w)
    return out.reshape(*m.shape[:-2], size)


def predict_existence(m: np.ndarray, phi1, axis: str) -> np.ndarray:
    """Per-column (or per-row) existence probabilities from the flattened masks.

    ``m`` (n, h, w) gives (n, w) for columns or (n, h) for rows: the head is
    one GEMM over all instances, whose rows split over two threads when it is
    large.
    """
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape[-2:]
    expected = w if axis == AXIS_COLUMNS else h
    if phi1.in_dim != h * w:
        raise ValueError(f"existence head expects input dim {h * w}, got {phi1.in_dim}")
    if phi1.out_dim != expected:
        raise ValueError(f"existence head for {axis} must output {expected} values")
    masks = m.reshape(-1, h * w)
    out = np.empty((len(masks), expected))

    def run(rows):
        out[rows] = sigmoid(mlp_forward(phi1, masks[rows]))

    _run_rows(run, len(masks), h * w)
    return out.reshape(*m.shape[:-2], expected)


def predict_direction(q_prime: np.ndarray, phi2) -> np.ndarray:
    """Probability that the point order follows the increasing index
    direction, (n,) for mask queries ``q_prime`` (n, c)."""
    return sigmoid(mlp_forward(phi2, q_prime)[..., 0])


def select_point_set(col: MaskPointReadout, row: MaskPointReadout) -> MaskPointReadout:
    """Pick the readout with more valid points; ties go to the columns readout."""
    n_row, n_col = (np.count_nonzero(r.existence > VALIDITY_THRESHOLD) for r in (row, col))
    return row if n_row > n_col else col


def readout_to_metric_points(readout: MaskPointReadout, grid: GridSpec) -> np.ndarray:
    """Convert a readout to metric (x, y) points in index order."""
    n = readout.coords.shape[0]
    idx = np.arange(n, dtype=np.float64)
    if readout.axis == AXIS_COLUMNS:
        rc = np.stack([readout.coords, idx], axis=-1)
    else:
        rc = np.stack([idx, readout.coords], axis=-1)
    return grid.cell_to_metric(rc)


def fuse_points(
    detected: Polyline, readout: MaskPointReadout, grid: GridSpec, k: int
) -> Polyline:
    """Refine detected points by averaging with resampled valid mask points.

    Valid mask points are converted to metric coordinates, reversed when the
    direction probability is below 0.5, outlier-filtered, and resampled to K
    points; refined (x, y) is the index-wise mean with the detected points and
    z comes from the detected polyline. Degenerate readouts (fewer than two
    surviving points) fall back to the detected polyline unchanged.
    """
    if len(detected) != k:
        raise ValueError(f"detected polyline must have exactly {k} points")
    valid = readout.existence > VALIDITY_THRESHOLD
    if int(valid.sum()) < 2:
        return detected
    metric = readout_to_metric_points(readout, grid)[valid]
    if readout.direction < 0.5:
        metric = metric[::-1]
    survivors = metric[filter_outliers(metric, OUTLIER_THRESHOLD)]
    if survivors.shape[0] < 2:
        return detected
    refined = detected.pts.copy()
    refined[:, :2] = 0.5 * (refined[:, :2] + resample_points(survivors, k))
    return Polyline(refined)
