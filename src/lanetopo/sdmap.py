"""SD map rasterization and BEV feature augmentation.

Road-level SD map polylines are traced into the BEV grid with a supercover
line rasterization, each touched cell taking the instance's semantic type
embedding (first instance wins on overlap, all other cells take the default
embedding). A small pre-norm transformer decoder then lets the sensor BEV
features attend into the SD grid: that semantic grid plus a position encoding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bev import BevGrid, GridSpec, NonFiniteError, _run_pair, layer_norm, mlp_forward
from .config import N_SEMANTIC_TYPES
from .decoder import deformable_attention_core
from .geometry import Polyline, integer_crossings
from .weights import SdInteractWeights

ROW_BLOCK = 2048  # BEV cells live at once in an SD layer; bounds the layer's temporaries


@dataclass(frozen=True)
class SdMapInstance:
    """One SD map element: a road-level polyline and its semantic type id."""

    polyline: Polyline
    semantic_type: int

    def __post_init__(self):
        if not 1 <= self.semantic_type <= N_SEMANTIC_TYPES:
            raise ValueError(f"semantic type {self.semantic_type} outside 1..{N_SEMANTIC_TYPES}")


def trace_cells(poly: Polyline, spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-grid pieces of a polyline's supercover trace, in traversal order:
    segment index, row and column of each.

    Cell (i, j) spans [j, j+1) x [i, i+1) in corner coordinates. Each segment
    is cut at its integer u and v crossings; each piece goes to the cell
    holding its midpoint. Only crossings with u in [0, w] and v in [0, h] are
    cut, since every in-grid piece lies between two of them, so the work is
    O(segments * (h + w)) however far the polyline reaches.
    """
    u = (poly.pts[:, 0] - spec.x_min) / spec.resolution
    v = (poly.pts[:, 1] - spec.y_min) / spec.resolution
    n_seg = len(poly) - 1
    ends = np.arange(n_seg)
    seg_u, _, t_u = integer_crossings(u, 0, spec.w)
    seg_v, _, t_v = integer_crossings(v, 0, spec.h)
    seg = np.concatenate([ends, ends, seg_u, seg_v])
    t = np.concatenate([np.zeros(n_seg), np.ones(n_seg), t_u, t_v])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    new = np.ones(len(t), dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[new], t[new]
    piece = seg[1:] == seg[:-1]  # consecutive cuts of one segment bound a piece
    seg = seg[:-1][piece]
    tm = 0.5 * (t[:-1][piece] + t[1:][piece])
    row = np.floor(v[seg] + tm * (v[seg + 1] - v[seg]))
    col = np.floor(u[seg] + tm * (u[seg + 1] - u[seg]))
    inside = (row >= 0) & (row < spec.h) & (col >= 0) & (col < spec.w)
    return seg[inside], row[inside].astype(np.int64), col[inside].astype(np.int64)


def supercover_cells(poly: Polyline, spec: GridSpec) -> np.ndarray:
    """Grid cells traversed by the polyline, deduplicated in traversal order.

    Cells outside the grid are dropped; a polyline entirely outside the grid
    yields an empty array.
    """
    _, row, col = trace_cells(poly, spec)
    _, first = np.unique(row * spec.w + col, return_index=True)
    first.sort()
    return np.stack([row[first], col[first]], axis=-1)


def rasterize_sdmap(instances: list[SdMapInstance], spec: GridSpec, table: np.ndarray) -> BevGrid:
    """Semantic embedding grid: traversed cells take their instance's type
    embedding (lowest instance index wins), the rest take the default.

    ``table`` is the (N_SEMANTIC_TYPES + 1, c) embedding array: row 0 is the
    default (unoccupied) embedding, row t the embedding of type t.
    """
    claim = np.zeros((spec.h, spec.w), dtype=np.int64)
    for inst in instances:
        row, col = supercover_cells(inst.polyline, spec).T
        claim[row, col] = np.where(claim[row, col] == 0, inst.semantic_type, claim[row, col])
    return BevGrid(table[claim], spec)


def sd_interact(b: BevGrid, sd_grid: BevGrid, weights: SdInteractWeights) -> BevGrid:
    """Augment BEV features by attending into the SD grid.

    ``sd_grid`` is the semantic grid plus the position encoding, as
    :func:`~lanetopo.pipeline.sd_features` builds it. Each layer applies
    deformable self-attention over the BEV cells, then deformable
    cross-attention into ``sd_grid``, then a feed-forward block.
    Sublayers are pre-norm residual, so zeroing every learned projection
    leaves the input exactly unchanged. Reference points are the cells' own
    integer coordinates. Each layer runs over 2 * ceil(h*w / ``ROW_BLOCK``)
    blocks of cells whose sizes differ by at most one, which every sublayer
    treats independently: this thread runs the even blocks and one helper
    thread the odd ones, so about ``ROW_BLOCK`` cells are live at once. The
    bits are those of one thread running every block in turn, and no block
    is a short remainder, which OpenBLAS would multiply with another kernel.
    A non-finite ``sd_grid``, or a layer whose output is not finite, raises
    :class:`~lanetopo.bev.NonFiniteError`.
    """
    if b.data.shape != sd_grid.data.shape:
        raise ValueError("BEV and SD grids must share h, w, c")
    # the grid's own check ran before its caller added the position encoding
    if not np.isfinite(sd_grid.data).all():
        raise NonFiniteError("sd_interact got a non-finite SD grid")
    h, w = b.h, b.w
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    refs = np.stack([rows.reshape(-1), cols.reshape(-1)], axis=-1).astype(np.float64)
    n_blocks = 2 * -(-h * w // ROW_BLOCK)
    bounds = [i * h * w // n_blocks for i in range(n_blocks + 1)]
    blocks = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    grid = b
    for i, layer in enumerate(weights.layers):
        # the self branch samples the whole old grid, so the layer writes a new one
        x = grid.flat()
        new = np.empty_like(x)

        def run(blocks):
            for block in blocks:
                y = x[block] + deformable_attention_core(
                    layer_norm(x[block], layer.self_ln), grid, refs[block], layer.self_deform
                )
                y += deformable_attention_core(
                    layer_norm(y, layer.cross_ln), sd_grid, refs[block], layer.cross_deform
                )
                y += mlp_forward(layer.ffn, layer_norm(y, layer.ffn_ln))
                new[block] = y

        _run_pair(functools.partial(run, blocks[0::2]), functools.partial(run, blocks[1::2]))
        # the grid's own finiteness check is the layer's one scan of its output;
        # the shape is the input's, so non-finite cells are its only ValueError
        try:
            grid = BevGrid(new.reshape(h, w, b.c), b.spec)
        except ValueError:
            raise NonFiniteError(f"sd_interact layer {i} produced non-finite BEV features") from None
    return grid
