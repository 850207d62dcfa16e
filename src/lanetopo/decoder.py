"""Hybrid-attention transformer decoder for centerline instance queries.

The real and virtual queries run through the decoder as one (n, c) array,
real rows first. Each decoder layer runs masked cross-attention over the BEV
cells, deformable cross-attention at learned sampling points, block
self-attention that keeps real queries blind to virtual ones (the only place
the two are told apart), and a feed-forward block; every sublayer is residual
with post layer normalization. Two MLP heads map final queries to K-point
polylines and detection probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bev import (
    BevGrid,
    MlpWeights,
    NonFiniteError,
    _run_rows,
    bilinear_sample_batch,
    binarize_logits,
    layer_norm,
    mlp_forward,
    sigmoid,
    softmax,
)
from .config import Z_MAX, Z_MIN, PipelineConfig
from .geometry import Polyline
from .points_mask import encode_mask_query, generate_mask
from .weights import DeformableWeights, ModelWeights

# smallest sum of a row's kept exps, shifted by the row maximum, that
# masked_cross_attention normalizes by; rows below it take the exact path
MIN_KEPT_SUM = 2.0**-52


@dataclass
class CenterlinePrediction:
    """One decoder output slot: geometry, confidence, category, embedding."""

    points: Polyline
    score: float
    is_real: bool
    query: np.ndarray


def masked_cross_attention(q: np.ndarray, b: BevGrid, m: np.ndarray | None) -> np.ndarray:
    """Attend from each query to the BEV cells allowed by its mask row.

    ``m`` is a boolean (n_queries, h*w) keep matrix, or None to attend
    everywhere. Scores are ``q @ cells^T``; each row's softmax runs over its
    kept cells, and a dropped cell gets weight exactly 0. Returns ``q`` plus
    the attention output; :func:`decoder_forward` applies the post-norm.

    Each row is shifted by its maximum over all cells, so no exp overflows,
    and normalized after the value product. A row whose kept exps sum below
    :data:`MIN_KEPT_SUM` (its kept cells sit far below a dropped maximum, or
    none is kept) or whose maximum is not finite is rescored on its own and
    goes through :func:`_kept_softmax` instead. Above that sum the shift by
    the maximum over all cells in place of the kept maximum adds at most
    about ``ln(h*w / MIN_KEPT_SUM) * 2**-53`` of rounding to a weight.

    Large calls split their rows over two threads (:func:`~lanetopo.bev._run_rows`).
    """
    cells = b.flat()
    if q.shape[1] != cells.shape[1]:
        raise ValueError("query and BEV channel dimensions differ")
    if m is not None and (m.shape != (q.shape[0], cells.shape[0]) or m.dtype != bool):
        raise ValueError(f"mask must be boolean (n_queries, h*w), got {m.dtype} {m.shape}")
    # the caller allocates the (n, h*w) scores, so the helper thread's half
    # allocates nothing large in a malloc arena of its own
    out, all_scores = np.empty(q.shape), np.empty((len(q), len(cells)))

    def run(rows):
        qr, mr = q[rows], None if m is None else m[rows]
        scores = np.matmul(qr, cells.T, out=all_scores[rows])
        # a row whose maximum is NaN or +-inf turns NaN here, which fails the
        # sum test below; the exact path redoes it with the usual warnings
        with np.errstate(invalid="ignore"):
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            if mr is not None:
                scores *= mr
            total = scores.sum(axis=1, keepdims=True)
        # one row at a time, so that a row's bits do not depend on how many
        # other rows take the exact path
        for r in np.flatnonzero(~(total[:, 0] >= MIN_KEPT_SUM)):
            keep = None if mr is None else mr[r:r + 1]
            scores[r] = _kept_softmax(qr[r:r + 1] @ cells.T, keep)[0]
            total[r] = 1.0
        out[rows] = qr + (scores @ cells) / total

    _run_rows(run, len(q), len(cells))
    return out


def _kept_softmax(scores: np.ndarray, m: np.ndarray | None) -> np.ndarray:
    """Softmax of each row of ``scores`` over its kept cells, shifted by the
    kept maximum, in place: the exact path of :func:`masked_cross_attention`.

    After the shift a kept cell is <= 0 wherever the kept maximum is finite,
    so the clamp changes only dropped cells: their exp stays finite (NaN
    scores too), times False it is exactly 0, and exp never sees -inf. A row
    whose kept maximum is NaN or +inf is all NaN, as softmax makes it.
    """
    top = (scores if m is None else np.where(m, scores, -np.inf)).max(axis=1, keepdims=True)
    if np.any(np.isneginf(top)):
        raise ValueError("softmax over a fully masked row")
    scores -= top
    np.fmin(scores, 0.0, out=scores)
    np.exp(scores, out=scores)
    if m is not None:
        scores *= m
    scores /= scores.sum(axis=1, keepdims=True)
    scores[~np.isfinite(top[:, 0])] = np.nan
    return scores


def rvs_self_attention(qr: np.ndarray, qv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block self-attention: real rows attend to real columns only, virtual rows to all.

    Scores are scaled by 1/sqrt(c). Returns the real and virtual rows plus
    their attention outputs; :func:`decoder_forward` applies the post-norm.
    The real block is computed without ever touching the virtual queries, so
    real outputs are structurally independent of them. With no real rows
    this is plain self-attention over ``qv``.
    """
    n_r, c = qr.shape
    scale = 1.0 / np.sqrt(c)
    # softmax over an empty axis raises, so an empty block skips it
    if n_r > 0:
        out_r = qr + softmax(qr @ qr.T * scale, axis=-1) @ qr
    else:
        out_r = qr.copy()
    if len(qv) > 0:
        w_v = softmax(np.concatenate([qv @ qr.T, qv @ qv.T], axis=1) * scale, axis=-1)
        out_v = qv + w_v @ np.concatenate([qr, qv], axis=0)
    else:
        out_v = qv.copy()
    return out_r, out_v


_ALL_POINTS_MASKED = "softmax over a fully masked row in the deformable attention"


def softmax_over_points(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 1 of (n, points, heads) logits, returned as an
    (n, heads, points) view.

    The bits are those of ``bev.softmax`` over the last axis of the same
    logits laid out contiguously as (n, heads, points): the max is
    elementwise over the point slices, and the sum adds them in order, which
    is how numpy sums fewer than 8 contiguous values. From 8 points on numpy
    sums pairwise, so those logits go through ``softmax`` itself. A slice
    of all -inf logits (huge weights overflow to it) raises NonFiniteError.
    """
    points = logits.shape[1]
    if points >= 8:
        try:
            return softmax(np.ascontiguousarray(logits.transpose(0, 2, 1)), axis=-1)
        except ValueError:
            raise NonFiniteError(_ALL_POINTS_MASKED) from None
    top = logits[:, 0]
    for p in range(1, points):
        top = np.maximum(top, logits[:, p])
    if np.any(np.isneginf(top)):
        raise NonFiniteError(_ALL_POINTS_MASKED)
    e = logits - top[:, None]
    np.exp(e, out=e)
    total = e[:, 0].copy()
    for p in range(1, points):
        total += e[:, p]
    e /= total[:, None]
    return e.transpose(0, 2, 1)


def deformable_attention_core(
    q: np.ndarray,
    b: BevGrid,
    refs: np.ndarray,
    w: DeformableWeights,
) -> np.ndarray:
    """Pre-residual deformable attention contribution for each query.

    Per head, the query predicts P (row, col) offsets around its reference
    point and a softmax-normalized weight per sampling point, both from one
    GEMM with the stacked projections. Their rows are stacked coordinate-major
    and point-major, so the locations and the softmax are elementwise over
    long slices. Each head bilinearly samples only its own C/heads channel
    slice of the value grid and sums its P samples by those weights, zero
    outside the grid: one sparse product in :func:`bilinear_sample_batch`, so
    callers bound n. The concatenated heads go through the output projection.
    """
    n, c = q.shape
    heads, points = w.heads, w.points
    if c % heads != 0:
        raise ValueError("channels must divide evenly across heads")
    n_off = heads * 2 * points
    # offset rows as (coordinate, head, point), logit rows as (point, head)
    proj = np.concatenate([
        w.w_offset.reshape(heads, points, 2, c).transpose(2, 0, 1, 3).reshape(n_off, c),
        w.w_attn.transpose(1, 0, 2).reshape(heads * points, c),
    ])
    bias = np.concatenate([
        w.b_offset.reshape(heads, points, 2).transpose(2, 0, 1).reshape(-1),
        w.b_attn.T.reshape(-1),
    ])
    z = q @ proj.T + bias
    refs = np.asarray(refs, dtype=np.float64).reshape(n, 2, 1)
    locs = (z[:, :n_off].reshape(n, 2, heads * points) + refs).reshape(n, 2, heads, points)
    attn = softmax_over_points(z[:, n_off:].reshape(n, points, heads))
    head_out = bilinear_sample_batch(b, locs.transpose(0, 2, 3, 1), heads, attn)
    return head_out.reshape(n, c) @ w.w_out.T + w.b_out


def deformable_cross_attention(
    q: np.ndarray,
    b: BevGrid,
    refs: np.ndarray,
    w: DeformableWeights,
) -> np.ndarray:
    """Deformable attention with residual add; :func:`decoder_forward`
    applies the post-norm."""
    return q + deformable_attention_core(q, b, refs, w)


def attention_mask_from_instance_masks(mask_logits: np.ndarray) -> np.ndarray:
    """Boolean (n, h*w) keep matrix from (n, h, w) instance mask logits.

    Cells with sigmoid(logit) >= 0.5 stay attendable (:func:`binarize_logits`);
    a row that would be fully masked falls back to attending everywhere (all
    True).
    """
    keep = binarize_logits(mask_logits).reshape(len(mask_logits), -1)
    keep[~keep.any(axis=1)] = True
    return keep


def points_from_queries(
    q: np.ndarray, points_head: MlpWeights, cfg: PipelineConfig
) -> np.ndarray:
    """Decode each query into K metric points inside the grid and the z range."""
    grid = cfg.grid
    u = sigmoid(mlp_forward(points_head, q)).reshape(q.shape[0], cfg.k, 3)
    pts = np.empty_like(u)
    pts[..., 0] = grid.x_min + u[..., 0] * (grid.x_max - grid.x_min)
    pts[..., 1] = grid.y_min + u[..., 1] * (grid.y_max - grid.y_min)
    pts[..., 2] = Z_MIN + u[..., 2] * (Z_MAX - Z_MIN)
    return pts


def instance_mask_logits(
    q: np.ndarray,
    pts: np.ndarray,
    b: BevGrid,
    weights: ModelWeights,
    points_guided: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Mask logits (n, h, w) for the n queries ``q`` (n, c) and the mask
    queries q' (n, c) they come from: points-guided from ``pts`` (n, k, 3),
    or from the query alone. q' is computed in one batched MLP pass and the
    logits in one GEMM.
    """
    mh = weights.mask_head
    q_prime = encode_mask_query(q, pts, mh) if points_guided else mlp_forward(mh.query_mlp, q)
    return generate_mask(b, q_prime), q_prime


def decoder_forward(
    b: BevGrid, weights: ModelWeights, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the full decoder stack and detection heads on the learnable queries.

    The queries are ``weights.decoder``'s real then virtual rows. Layer 0
    attends everywhere in the masked branch and uses the learnable initial
    reference points; later layers take masks and references from the
    previous layer's predicted geometry. With ``hybrid_attention`` off no
    layer builds a mask. With ``rvs_self_attention`` off no row is
    real-only, so the block self-attention is plain self-attention.
    Returns the final layer's queries (n, c), points (n, k, 3) and detection
    probabilities (n,).
    """
    dec = weights.decoder
    if len(dec.layers) != cfg.layers:
        raise ValueError(
            f"weights carry {len(dec.layers)} decoder layers, config expects {cfg.layers}"
        )
    q = np.concatenate([dec.real_queries, dec.virtual_queries])
    n_sep = len(dec.real_queries) if cfg.rvs_self_attention else 0
    refs = sigmoid(dec.init_ref_logits) * np.array([b.h - 1, b.w - 1], dtype=np.float64)
    attn_mask = None  # layer 0 attends everywhere
    for li, lw in enumerate(dec.layers):
        if cfg.hybrid_attention:
            q = layer_norm(masked_cross_attention(q, b, attn_mask), lw.masked_ln)
        q = layer_norm(deformable_cross_attention(q, b, refs, lw.deform), lw.deform_ln)
        q = layer_norm(np.concatenate(rvs_self_attention(q[:n_sep], q[n_sep:])), lw.self_ln)
        q = layer_norm(q + mlp_forward(lw.ffn, q), lw.ffn_ln)
        pts = points_from_queries(q, dec.points_head, cfg)
        if li < cfg.layers - 1:
            centroids = pts[:, :, :2].mean(axis=1)
            refs = b.spec.metric_to_cell(centroids)
            if cfg.hybrid_attention:
                mask_logits, _ = instance_mask_logits(q, pts, b, weights, cfg.pgm)
                attn_mask = attention_mask_from_instance_masks(mask_logits)
    scores = sigmoid(mlp_forward(dec.score_head, q))[:, 0]
    return q, pts, scores
