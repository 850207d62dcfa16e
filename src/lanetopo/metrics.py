"""Evaluation metrics: Frechet-based detection mAP, lane-graph connectivity
mAP, and mask-IoU average precision.

Matching is greedy in descending score order with deterministic index
tie-breaks, and AP is the area under the all-point-interpolated
precision-recall curve. Conventions for empty sets: no ground truth and no
predictions scores 1.0; predictions against empty ground truth (or the
reverse) score 0.0. The connectivity score is a self-contained
simplification, comparable only within this repository.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bev import binarize_logits
from .geometry import Polyline, frechet_matrix, resample_polyline

# polylines are resampled to a common density before the Frechet coupling;
# otherwise a sparse prediction of the exact lane geometry would still sit
# half a vertex spacing away from a dense ground truth
FRECHET_EVAL_POINTS = 50


def average_precision(tp_flags, n_gt: int) -> float:
    """Area under the interpolated PR curve for ranked detections, from a
    bool array or list of hit flags in rank order."""
    flags = np.asarray(tp_flags, dtype=bool)
    if n_gt == 0:
        return 1.0 if flags.size == 0 else 0.0
    if not flags.any():
        return 0.0
    tp = np.cumsum(flags, dtype=np.float64)
    recall = tp / n_gt
    precision = tp / np.arange(1, flags.size + 1)
    # all-point interpolation: precision envelope integrated over recall,
    # which steps up at each hit; cumsum adds the steps in rank order
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(recall[flags], prepend=0.0)
    return float(np.cumsum(steps * envelope[flags])[-1])


def _rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Descending-score order with ascending index as the tie-break."""
    return np.lexsort((np.arange(len(scores)), -np.asarray(scores, dtype=np.float64)))


def _resampled_ends(lines: list[Polyline]) -> np.ndarray:
    """(L, 2, 3): the first and last point of each line's resampling. Those
    are the line's own endpoints, except that a line whose segment norms sum
    to 0 (distinct points about 1e-300 apart can do that) resamples to
    copies of its first point."""
    if not lines:
        return np.empty((0, 2, 3))
    pts = np.concatenate([p.pts for p in lines])
    last = np.cumsum([len(p) for p in lines]) - 1
    first = np.concatenate([[0], last[:-1] + 1])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    seg[last[:-1]] = 0.0  # the steps from one line to the next
    length = np.add.reduceat(seg, first)
    return pts[np.stack([first, np.where(length > 0.0, last, first)], axis=1)]


def _frechet_matrix(
    preds: list[Polyline],
    gts: list[Polyline],
    bound: float,
    n_eval: int = FRECHET_EVAL_POINTS,
) -> np.ndarray:
    """Pairwise Frechet distances on density-aligned resamplings, (P, G),
    exact for every pair that can lie within ``bound`` and +inf for the
    pairs that the endpoint bound proves farther.

    Every coupling pairs the first points with each other and the last
    points with each other, so a pair's distance is at least the larger of
    its two endpoint gaps. A pair is kept when that gap is at most
    ``bound``. Only the lines of kept pairs are resampled, and the kept rows
    by the kept columns go through one exact :func:`frechet_matrix`; every
    other entry is +inf.
    """
    a, b = _resampled_ends(preds), _resampled_ends(gts)
    gap = np.linalg.norm(a[:, None] - b[None], axis=-1).max(axis=-1)
    keep = gap <= bound
    rows, cols = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
    dist = np.full(keep.shape, np.inf)
    if rows.size:

        def stack(lines: list[Polyline], index: np.ndarray) -> np.ndarray:
            return np.array([resample_polyline(lines[i], n_eval).pts for i in index])

        dist[np.ix_(rows, cols)] = frechet_matrix(stack(preds, rows), stack(gts, cols))
    return dist


def _greedy_match(order: np.ndarray, cost: np.ndarray, threshold: float) -> np.ndarray:
    """Score-ordered greedy matching: each prediction, in ``order``, takes the
    cheapest still-unmatched ground truth (first index on ties) if its cost
    is at most ``threshold``. Returns the matched ground-truth index per
    ranked prediction, -1 for none.

    Only the ranks whose row minimum is within the threshold are visited: a
    row whose best entry over all ground truths misses also misses over the
    untaken ones.
    """
    matched = np.full(len(order), -1)
    taken = np.zeros(cost.shape[1], dtype=bool)
    can_hit = np.min(cost, axis=1, initial=np.inf)[order] <= threshold
    for rank in np.flatnonzero(can_hit):
        row = np.where(taken, np.inf, cost[order[rank]])
        j = int(np.argmin(row))
        if row[j] <= threshold:
            taken[j] = True
            matched[rank] = j
    return matched


def _mean_ap(
    cost: np.ndarray, scores: np.ndarray, thresholds: dict[str, float]
) -> tuple[float, dict[str, float]]:
    """AP of greedy matching on the (P, G) ``cost`` matrix at each named
    threshold, and their mean.

    Predictions are ranked by score. An empty side follows
    :func:`average_precision`: no predictions and no ground truth score 1.0,
    one side empty scores 0.0.
    """
    order = _rank_by_score(scores)
    per = {
        name: average_precision(_greedy_match(order, cost, t) >= 0, cost.shape[1])
        for name, t in thresholds.items()
    }
    return float(np.mean(list(per.values()))), per


@dataclass
class EvalReport:
    det_l: float
    top_ll: float
    ap_l: float
    det_per_threshold: dict[str, float] = field(default_factory=dict)
    ap_per_threshold: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def det_l(
    preds: list[Polyline],
    scores: np.ndarray,
    gts: list[Polyline],
    thresholds: tuple[float, ...] = (1.0, 2.0, 3.0),
    *,
    dist: np.ndarray | None = None,
) -> tuple[float, dict[str, float]]:
    """Detection mAP over Frechet distance thresholds.

    ``dist`` is the prediction-by-ground-truth Frechet matrix of
    :func:`_frechet_matrix` with a bound of at least the largest threshold;
    it is computed with that bound when not given. Its +inf entries stand
    for distances above the bound, which match at no threshold.
    """
    thresholds = sorted(thresholds)
    if dist is None:
        dist = _frechet_matrix(preds, gts, max(thresholds))
    return _mean_ap(dist, scores, {f"{t:g}": t for t in thresholds})


def top_ll(
    pred_lines: list[Polyline],
    pred_scores: np.ndarray,
    pred_adj: np.ndarray,
    gt_lines: list[Polyline],
    gt_adj: np.ndarray,
    match_threshold: float = 1.0,
    *,
    dist: np.ndarray | None = None,
) -> float:
    """Connectivity AP after projecting predicted adjacency onto ground truth.

    Lanes are matched greedily by detection score under the Frechet
    threshold. A ground-truth lane pair with both endpoints matched and a
    projected probability above 0.5 becomes a ranked candidate edge; pairs at
    or below 0.5 assert "no edge", and pairs touching unmatched lanes stay
    unreachable (missed). ``dist`` is as in :func:`det_l`, with a bound of
    at least ``match_threshold``.
    """
    gt_adj = np.asarray(gt_adj)
    n_edges = int(gt_adj.sum())
    # lane matching, greedy by score
    gt_to_pred = np.full(len(gt_lines), -1)
    if pred_lines and gt_lines:
        if dist is None:
            dist = _frechet_matrix(pred_lines, gt_lines, match_threshold)
        order = _rank_by_score(pred_scores)
        matched = _greedy_match(order, dist, match_threshold)
        gt_to_pred[matched[matched >= 0]] = order[matched >= 0]
    # candidate edges: matched lane pairs asserting a connection
    is_matched = gt_to_pred >= 0
    a, b = np.nonzero(np.logical_and.outer(is_matched, is_matched))
    prob = pred_adj[gt_to_pred[a], gt_to_pred[b]]
    keep = prob > 0.5
    a, b, prob = a[keep], b[keep], prob[keep]
    if n_edges == 0:
        return 0.0 if a.size else 1.0
    rank = np.lexsort((b, a, -prob))
    return average_precision(gt_adj[a[rank], b[rank]], n_edges)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    union = float(np.logical_or(a, b).sum())
    if union == 0.0:
        return 0.0
    return float(np.logical_and(a, b).sum()) / union


def mask_iou_matrix(pred_masks: np.ndarray, gt_masks: np.ndarray) -> np.ndarray:
    """The (P, G) matrix of :func:`mask_iou` between (P, h, w) predictions and
    (G, h, w) ground truths, from one product of the flattened 0/1 masks.

    A bool prediction stack is used as is; any other is binarized as logits
    by :func:`binarize_logits`. Ground truth counts its nonzero cells.
    """
    p, g = np.asarray(pred_masks), np.asarray(gt_masks, dtype=bool)
    if len(p) == 0 or len(g) == 0:
        return np.zeros((len(p), len(g)))
    if p.dtype != bool:
        p = binarize_logits(p)
    # 0/1 counts are exact in float32 up to 2**24 cells
    dtype = np.float32 if g[0].size < 2**24 else np.float64
    p = p.reshape(len(p), -1).astype(dtype)
    g = g.reshape(len(g), -1).astype(dtype)
    inter = (p @ g.T).astype(np.float64)
    union = p.sum(axis=1, dtype=np.float64)[:, None] + g.sum(axis=1, dtype=np.float64) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def mask_ap(
    pred_masks: np.ndarray,
    scores: np.ndarray,
    gt_masks: np.ndarray,
    iou_thresholds: tuple[float, ...] = (0.5, 0.75),
) -> tuple[float, dict[str, float]]:
    """Instance-mask AP over (n, h, w) mask stacks: logits are binarized at
    probability 0.5, and matching is greedy by score at each IoU threshold,
    as the least -IoU within -threshold."""
    iou = mask_iou_matrix(pred_masks, gt_masks)
    return _mean_ap(-iou, scores, {f"{t:g}": -t for t in sorted(iou_thresholds)})
