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


def average_precision(tp_flags: list[bool], n_gt: int) -> float:
    """Area under the interpolated PR curve for ranked detections."""
    if n_gt == 0:
        return 1.0 if len(tp_flags) == 0 else 0.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # all-point interpolation: precision envelope integrated over recall
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for level in range(len(tp_flags)):
        r = recall[level]
        if r > prev_r:
            ap += (r - prev_r) * float(envelope[level])
            prev_r = r
    return float(ap)


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


def _greedy_match(order, dist, threshold, larger_is_better=False) -> list[int]:
    """Score-ordered greedy matching: each prediction, in ``order``, takes the
    best still-unmatched ground truth within the threshold. Returns the
    matched ground-truth index per ranked prediction, -1 for none."""
    n_gt = dist.shape[1]
    taken = np.zeros(n_gt, dtype=bool)
    matched = []
    for i in order:
        row = dist[i].copy()
        row[taken] = -np.inf if larger_is_better else np.inf
        j = int(np.argmax(row)) if larger_is_better else int(np.argmin(row))
        hit = row[j] >= threshold if larger_is_better else row[j] <= threshold
        if hit:
            taken[j] = True
        matched.append(j if hit else -1)
    return matched


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
    thresholds = tuple(sorted(thresholds))
    if not gts and not preds:
        per = {f"{t:g}": 1.0 for t in thresholds}
        return 1.0, per
    if not gts or not preds:
        per = {f"{t:g}": 0.0 for t in thresholds}
        return 0.0, per
    if dist is None:
        dist = _frechet_matrix(preds, gts, max(thresholds))
    order = _rank_by_score(scores)
    per = {}
    for t in thresholds:
        flags = [j >= 0 for j in _greedy_match(order, dist, t)]
        per[f"{t:g}"] = average_precision(flags, len(gts))
    return float(np.mean(list(per.values()))), per


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
    n_gt = len(gt_lines)
    n_edges = int(gt_adj.sum())
    # lane matching, greedy by score
    gt_to_pred: dict[int, int] = {}
    if pred_lines and gt_lines:
        if dist is None:
            dist = _frechet_matrix(pred_lines, gt_lines, match_threshold)
        order = _rank_by_score(pred_scores)
        matched = _greedy_match(order, dist, match_threshold)
        gt_to_pred = {j: int(i) for i, j in zip(order, matched) if j >= 0}
    # candidate edges: matched lane pairs asserting a connection
    cand = []
    for a in range(n_gt):
        for b in range(n_gt):
            if a in gt_to_pred and b in gt_to_pred:
                prob = float(pred_adj[gt_to_pred[a], gt_to_pred[b]])
                if prob > 0.5:
                    cand.append((prob, a, b, bool(gt_adj[a, b])))
    if n_edges == 0:
        return 0.0 if cand else 1.0
    cand.sort(key=lambda item: (-item[0], item[1], item[2]))
    return average_precision([is_edge for _, _, _, is_edge in cand], n_edges)


def _binarize(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype == bool:
        return mask
    return binarize_logits(mask)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    union = float(np.logical_or(a, b).sum())
    if union == 0.0:
        return 0.0
    return float(np.logical_and(a, b).sum()) / union


def mask_iou_matrix(pred_masks: list[np.ndarray], gt_masks: list[np.ndarray]) -> np.ndarray:
    """The (P, G) matrix of :func:`mask_iou` between binarized predictions
    and ground truths (both lists non-empty), from one product of the
    flattened 0/1 masks."""
    # 0/1 counts are exact in float32 up to 2**24 cells
    dtype = np.float32 if np.asarray(gt_masks[0]).size < 2**24 else np.float64
    p = np.array([_binarize(m).ravel() for m in pred_masks], dtype=dtype)
    g = np.array([np.asarray(m, dtype=bool).ravel() for m in gt_masks], dtype=dtype)
    inter = (p @ g.T).astype(np.float64)
    union = p.sum(axis=1, dtype=np.float64)[:, None] + g.sum(axis=1, dtype=np.float64) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def mask_ap(
    pred_masks: list[np.ndarray],
    scores: np.ndarray,
    gt_masks: list[np.ndarray],
    iou_thresholds: tuple[float, ...] = (0.5, 0.75),
) -> tuple[float, dict[str, float]]:
    """Instance-mask AP: logits are binarized at probability 0.5, matching is
    greedy by score at each IoU threshold."""
    iou_thresholds = tuple(sorted(iou_thresholds))
    if not gt_masks and not pred_masks:
        per = {f"{t:g}": 1.0 for t in iou_thresholds}
        return 1.0, per
    if not gt_masks or not pred_masks:
        per = {f"{t:g}": 0.0 for t in iou_thresholds}
        return 0.0, per
    iou = mask_iou_matrix(pred_masks, gt_masks)
    order = _rank_by_score(scores)
    per = {}
    for t in iou_thresholds:
        flags = [j >= 0 for j in _greedy_match(order, iou, t, larger_is_better=True)]
        per[f"{t:g}"] = average_precision(flags, len(gt_masks))
    return float(np.mean(list(per.values()))), per
