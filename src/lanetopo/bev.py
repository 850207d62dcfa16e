"""Dense numeric kernel for BEV feature grids.

Grids, small MLPs, stabilized softmax, bilinear sampling, 2D sinusoidal
position encodings, layer normalization, and a central-difference gradient
harness. All math is 64-bit floating point and deterministic; there is no
autodiff and no GPU path. Large products run half their rows on one helper
thread (:func:`_run_halves`), with the bits of one thread.
"""

from __future__ import annotations

import contextvars
import functools
import os
from dataclasses import dataclass

import numpy as np

LN_EPS = 1e-5

# rows x cells from which _run_halves splits a product over two threads:
# the full-pair shapes (48 or 24 rows x 20,000 cells) split, the desk ones
# (32 or 16 rows x 5,000 cells) stay on one, where the hand-off costs more
# than the second core saves
ROW_SPLIT = 2**18


# SciPy loads on the first call of each wrapper, not at import: scipy.sparse
# takes about 0.26 s to import and scipy.special 0.14 s, which scoring a
# prediction file never needs
def csr_array(arg, shape):
    """``scipy.sparse.csr_array(arg, shape=shape)``."""
    from scipy.sparse import csr_array

    return csr_array(arg, shape=shape)


def sigmoid(x):
    """``scipy.special.expit(x)``: the logistic function, exactly as SciPy rounds it."""
    from scipy.special import expit

    return expit(x)


@functools.cache
def _helper():
    """The one helper thread :func:`_run_pair` runs its second half on."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="lanetopo-helper")


# a forked child has no helper thread, though the parent's executor says it has
os.register_at_fork(after_in_child=_helper.cache_clear)


def _run_pair(first, second) -> None:
    """Run ``first()`` on this thread and ``second()`` on the helper thread.

    ``second`` runs in a copy of this thread's context, which holds the
    caller's ``np.errstate``. This returns or raises only once both are done;
    an error in ``first`` wins over one in ``second``.
    """
    second_done = _helper().submit(contextvars.copy_context().run, second)
    try:
        first()
    finally:
        second_done.exception()
    second_done.result()


def _run_halves(run, parts: int, work: int) -> None:
    """Call ``run(part)`` over slices that cover the ``parts`` independent
    parts of a product, rows or output columns, that costs ``work`` cells
    of work (rows x cells).

    From :data:`ROW_SPLIT` cells of work on, this thread runs the first
    ceil(parts / 2) parts and the helper thread the rest; below it ``run``
    gets ``slice(None)``. Each half comes out with the bits of the whole
    product at one BLAS thread.
    """
    if parts < 2 or work < ROW_SPLIT:
        run(slice(None))
        return
    half = (parts + 1) // 2
    _run_pair(functools.partial(run, slice(0, half)), functools.partial(run, slice(half, parts)))


class NonFiniteError(ValueError):
    """A stage produced NaN or infinite values from finite inputs."""


@dataclass(frozen=True)
class GridSpec:
    """Metric <-> cell transform for an H x W BEV grid.

    Cell (row, col) is centered at ``(x_min + (col + 0.5) * resolution,
    y_min + (row + 0.5) * resolution)``: column index increases with x
    (driving direction), row index with y.
    """

    h: int
    w: int
    x_min: float
    y_min: float
    resolution: float

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")

    @property
    def x_max(self) -> float:
        return self.x_min + self.w * self.resolution

    @property
    def y_max(self) -> float:
        return self.y_min + self.h * self.resolution

    def metric_to_cell(self, xy: np.ndarray) -> np.ndarray:
        """Map metric (x, y) to fractional (row, col); shapes (..., 2)."""
        xy = np.asarray(xy, dtype=np.float64)
        col = (xy[..., 0] - self.x_min) / self.resolution - 0.5
        row = (xy[..., 1] - self.y_min) / self.resolution - 0.5
        return np.stack([row, col], axis=-1)

    def cell_to_metric(self, rc: np.ndarray) -> np.ndarray:
        """Map fractional (row, col) to metric (x, y); shapes (..., 2)."""
        rc = np.asarray(rc, dtype=np.float64)
        x = self.x_min + (rc[..., 1] + 0.5) * self.resolution
        y = self.y_min + (rc[..., 0] + 0.5) * self.resolution
        return np.stack([x, y], axis=-1)


@dataclass
class BevGrid:
    """H x W x C feature map tied to a metric transform."""

    data: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(f"grid data must be (h, w, c), got {data.shape}")
        if data.shape[:2] != (self.spec.h, self.spec.w):
            raise ValueError(
                f"data shape {data.shape[:2]} does not match grid {self.spec.h}x{self.spec.w}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("grid features must be finite")
        self.data = data

    @property
    def h(self) -> int:
        return self.data.shape[0]

    @property
    def w(self) -> int:
        return self.data.shape[1]

    @property
    def c(self) -> int:
        return self.data.shape[2]

    def flat(self) -> np.ndarray:
        """Cells flattened row-major to (h * w, c)."""
        return self.data.reshape(self.h * self.w, self.c)


_ACTIVATIONS = ("relu", "none")


@dataclass
class MlpWeights:
    """Sequential affine layers: list of (weight (out, in), bias (out,), activation)."""

    layers: list[tuple[np.ndarray, np.ndarray, str]]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        checked = []
        prev_out = None
        for w, b, act in self.layers:
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError("layer weight must be (out, in) with bias (out,)")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError("consecutive layer dimensions must chain")
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("MLP weights must be finite")
            prev_out = w.shape[0]
            checked.append((w, b, act))
        self.layers = checked

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[0]


def mlp_forward(w: MlpWeights, x: np.ndarray) -> np.ndarray:
    """Apply the MLP to a feature vector or a batch with features last."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != w.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != MLP input dim {w.in_dim}")
    for mat, bias, act in w.layers:
        x = activate(x @ mat.T + bias, act)
    return x


def activate(x: np.ndarray, act: str) -> np.ndarray:
    """Apply an MLP layer's activation to ``x`` in place and return it."""
    if act == "relu":
        np.maximum(x, 0.0, out=x)
    return x


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stabilized softmax; -inf entries act as mask sentinels and map to 0.

    Raises on any fully masked (all -inf) slice.
    """
    v = np.asarray(v, dtype=np.float64)
    m = np.max(v, axis=axis, keepdims=True)
    if np.any(np.isneginf(m)):
        raise ValueError("softmax over a fully masked row")
    e = v - m
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def binarize_logits(x: np.ndarray) -> np.ndarray:
    """``sigmoid(x) >= 0.5`` on float64 logits, bit for bit, without taking
    the sigmoid of every cell.

    The test holds for every x >= 0 (-0.0 included). A negative x passes only
    where the sigmoid rounds to exactly 0.5, which happens down to about
    -3.3e-16, so the cells in (-1e-12, 0) are decided by the sigmoid itself.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x >= 0.0
    near = (x > -1e-12) & ~out
    if near.any():
        out[near] = sigmoid(x[near]) >= 0.5
    return out


@dataclass
class LayerNormWeights:
    """Per-channel affine parameters for layer normalization."""

    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=np.float64).reshape(-1)
        self.shift = np.asarray(self.shift, dtype=np.float64).reshape(-1)
        if self.scale.shape != self.shift.shape:
            raise ValueError("scale and shift must have the same length")

    @classmethod
    def identity(cls, c: int) -> LayerNormWeights:
        return cls(np.ones(c), np.zeros(c))


def layer_norm(x: np.ndarray, ln: LayerNormWeights, eps: float = LN_EPS) -> np.ndarray:
    """Normalize over the last axis, then apply the affine parameters."""
    x = np.asarray(x, dtype=np.float64)
    d = x - np.mean(x, axis=-1, keepdims=True)
    d /= np.sqrt(np.mean(d * d, axis=-1, keepdims=True) + eps)
    d *= ln.scale
    d += ln.shift
    return d


def bilinear_sample_batch(
    g: BevGrid, locs: np.ndarray, heads: int = 1, weights: np.ndarray | None = None
) -> np.ndarray:
    """Bilinear interpolation of grid features at fractional (row, col) locations.

    ``locs`` has shape (..., 2); the result has shape (..., c // heads).
    Locations outside [0, h-1] x [0, w-1], NaN and +-inf included, return the
    zero vector (zero padding).

    With ``heads`` > 1 the channels split into ``heads`` equal contiguous
    slices and ``locs`` has shape (..., heads, points, 2): the locations of
    head k read only slice k (Deformable DETR's per-head value split), so the
    result has shape (..., heads, points, c // heads). ``weights`` of shape
    ``locs.shape[:-1]`` sum the last location axis away: (..., heads, c // heads).

    The result is one sparse product with the grid viewed as
    (h * w * heads, c // heads) rows: each location adds its four corner rows
    ``(r * w + col) * heads + k``, at its bilinear weights times its weight,
    to its output row.
    """
    locs = np.asarray(locs, dtype=np.float64)
    h, w = g.h, g.w
    table = g.data.reshape(h * w * heads, g.c // heads)
    lead = locs.shape[:-1]
    if weights is not None and (not lead or np.shape(weights) != lead):
        raise ValueError(f"weights must have shape {lead}, got {np.shape(weights)}")
    r = locs[..., 0]
    c = locs[..., 1]
    inside = (r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1)
    # outside locations (NaN and +-inf among them) read cell (0, 0) at weight 0,
    # so no NaN or huge value reaches the integer cast or the corner weights; a
    # NaN weight stays NaN, as it would times a zero sample
    r = np.where(inside, r, 0.0)
    c = np.where(inside, c, 0.0)
    scale = inside if weights is None else inside * np.asarray(weights, dtype=np.float64)
    # the lower corner stops one short of the last row and column, so the upper
    # one stays in the grid; a one-cell axis reads its only cell twice
    r0 = np.minimum(np.floor(r), max(h - 2, 0))
    c0 = np.minimum(np.floor(c), max(w - 2, 0))
    fr = r - r0
    fc = c - c0
    low, high, left = (1 - fr) * scale, fr * scale, 1 - fc
    # int32 holds every row: a table of 2**31 rows would be at least 16 GB
    head = np.arange(heads, dtype=np.int32)[:, None] if heads > 1 else 0
    base = (r0.astype(np.int32) * w + c0.astype(np.int32)) * heads + head
    dr, dc = (w * heads if h > 1 else 0), (heads if w > 1 else 0)
    corner_w = np.empty(lead + (4,))
    corner_row = np.empty(lead + (4,), dtype=np.int32)
    corners = ((low, left, 0), (low, fc, dc), (high, left, dr), (high, fc, dr + dc))
    for k, (by_row, by_col, step) in enumerate(corners):
        np.multiply(by_row, by_col, out=corner_w[..., k])
        np.add(base, step, out=corner_row[..., k])
    rows, per_row = (lead, 4) if weights is None else (lead[:-1], 4 * lead[-1])
    indptr = np.arange(0, corner_w.size + 1, per_row, dtype=np.int32)
    m = csr_array((corner_w.reshape(-1), corner_row.reshape(-1), indptr),
                  shape=(len(indptr) - 1, len(table)))
    return (m @ table).reshape(rows + table.shape[1:])


def sinusoidal_pe_2d(spec: GridSpec, c: int) -> BevGrid:
    """Deterministic 2D sinusoidal position encoding over ``spec``'s cells.

    The first c/2 channels encode column position, the last c/2 row position.
    Each half holds sin/cos pairs over geometrically spaced frequencies
    (base 10000). Positions are scaled to [0, 2*pi*(n-1)/n) per axis so the
    base-frequency pair stays injective for any grid size.
    """
    if c % 4 != 0:
        raise ValueError("channel count must be divisible by 4")
    h, w = spec.h, spec.w
    quarter = c // 4
    div = np.power(10000.0, np.arange(quarter) / quarter)
    u_col = 2.0 * np.pi * np.arange(w) / w
    u_row = 2.0 * np.pi * np.arange(h) / h
    data = np.zeros((h, w, c), dtype=np.float64)
    col_phase = u_col[:, None] / div[None, :]
    row_phase = u_row[:, None] / div[None, :]
    half = c // 2
    data[:, :, 0:half:2] = np.sin(col_phase)[None, :, :]
    data[:, :, 1:half:2] = np.cos(col_phase)[None, :, :]
    data[:, :, half::2] = np.sin(row_phase)[:, None, :]
    data[:, :, half + 1 :: 2] = np.cos(row_phase)[:, None, :]
    return BevGrid(data, spec)


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        step = np.zeros_like(xf)
        step[i] = eps
        hi = f((xf + step).reshape(x.shape))
        lo = f((xf - step).reshape(x.shape))
        flat[i] = (hi - lo) / (2.0 * eps)
    return grad
