"""Bipartite matching and the training loss stack, with hand-derived gradients.

Real and virtual predictions are matched to their ground-truth categories
separately; the total objective combines topology, classification, geometry,
mask, and mask-point terms under configurable coefficients. Every
differentiable term ships an analytic gradient checked against central
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bev import GridSpec, finite_diff_grad, sigmoid, softmax
from .config import LossCoefficients
from .decoder import CenterlinePrediction
from .geometry import Polyline, integer_crossings, resample_polyline
from .pipeline import ModelOutputs
from .points_mask import AXIS_COLUMNS, AXIS_ROWS
from .scene import Scene, render_gt_masks

PROB_EPS = 1e-7


# --- elementary losses --------------------------------------------------------


def _clamp(p: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(p, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)


def focal_loss(p, y, alpha: float = 0.25, gamma: float = 2.0):
    """Elementwise focal loss on probabilities against binary targets."""
    p = _clamp(p)
    y = np.asarray(y, dtype=np.float64)
    pos = -alpha * (1.0 - p) ** gamma * np.log(p)
    neg = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
    return y * pos + (1.0 - y) * neg


def focal_grad(p, y, alpha: float = 0.25, gamma: float = 2.0):
    """d focal / d p, valid away from the probability clamp."""
    p = _clamp(p)
    y = np.asarray(y, dtype=np.float64)
    dpos = alpha * gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) - alpha * (1.0 - p) ** gamma / p
    dneg = (
        -(1.0 - alpha) * gamma * p ** (gamma - 1.0) * np.log(1.0 - p)
        + (1.0 - alpha) * p**gamma / (1.0 - p)
    )
    return y * dpos + (1.0 - y) * dneg


def dice_loss(pred, gt, smooth: float = 1.0) -> float:
    """1 - (2 * overlap + s) / (sum(pred) + sum(gt) + s)."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("dice inputs must share a shape")
    num = 2.0 * float(np.sum(pred * gt)) + smooth
    den = float(np.sum(pred) + np.sum(gt)) + smooth
    return 1.0 - num / den


def dice_grad(pred, gt, smooth: float = 1.0) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    num = 2.0 * float(np.sum(pred * gt)) + smooth
    den = float(np.sum(pred) + np.sum(gt)) + smooth
    return -(2.0 * gt * den - num) / den**2


def l1_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("l1 inputs must share a shape")
    return float(np.mean(np.abs(pred - target)))


def l1_grad(pred, target) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return np.sign(pred - target) / pred.size


def bce_loss(pred, target) -> float:
    pred = _clamp(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("bce inputs must share a shape")
    return float(np.mean(-(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))))


def bce_grad(pred, target) -> np.ndarray:
    pred = _clamp(pred)
    target = np.asarray(target, dtype=np.float64)
    return (-target / pred + (1.0 - target) / (1.0 - pred)) / pred.size


# --- bipartite matching ---------------------------------------------------------


@dataclass
class Assignment:
    """One-to-one prediction/ground-truth pairing."""

    pairs: list[tuple[int, int]]
    unmatched_predictions: list[int]

    def __post_init__(self):
        pred_ids = [i for i, _ in self.pairs]
        gt_ids = [j for _, j in self.pairs]
        if len(set(pred_ids)) != len(pred_ids) or len(set(gt_ids)) != len(gt_ids):
            raise ValueError("assignment must be one-to-one")


def _optimal_cost(cost: np.ndarray) -> float:
    # imported here so that the run path does not load scipy.optimize
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost assignment of min(n, m) pairs, deterministic under ties.

    Among all optimal assignments, returns the one whose sorted pair list is
    lexicographically smallest: earlier prediction rows are matched when an
    optimal assignment allows it, each to the smallest admissible column.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment(pairs=[], unmatched_predictions=list(range(n)))
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")
    base = _optimal_cost(cost)
    tol = 1e-9 * max(1.0, abs(base))
    target = min(n, m)
    pairs: list[tuple[int, int]] = []
    fixed = 0.0
    rows = list(range(n))
    cols = list(range(m))
    for i in range(n):
        if len(pairs) == target:
            break
        chosen = None
        for j in cols:
            rest = 0.0
            need = target - len(pairs) - 1
            if need > 0:
                rem_rows = [r for r in rows if r != i]
                rem_cols = [c for c in cols if c != j]
                rest = _optimal_cost(cost[np.ix_(rem_rows, rem_cols)])
            if abs(fixed + cost[i, j] + rest - base) <= tol:
                chosen = j
                break
        rows.remove(i)
        if chosen is not None:
            pairs.append((i, chosen))
            cols.remove(chosen)
            fixed += cost[i, chosen]
    matched = {i for i, _ in pairs}
    return Assignment(pairs, [i for i in range(n) if i not in matched])


def match_instances(
    preds: list[CenterlinePrediction],
    gts: list[Polyline],
    lambda_cls: float,
    lambda_det: float,
) -> Assignment:
    """Match one category of predictions against its ground-truth lanes.

    Cost pairs the focal classification cost of the prediction score (positive
    target) with the mean L1 distance between the prediction's K points and
    the ground truth resampled to K.
    """
    if not preds or not gts:
        return Assignment(pairs=[], unmatched_predictions=list(range(len(preds))))
    k = len(preds[0].points)
    pred_pts = np.stack([p.points.pts for p in preds])
    gt_pts = np.stack([resample_polyline(g, k).pts for g in gts])
    cls_cost = focal_loss(np.array([p.score for p in preds]), 1.0)
    det_cost = np.mean(np.abs(pred_pts[:, None] - gt_pts[None]), axis=(2, 3))
    return hungarian(lambda_cls * cls_cost[:, None] + lambda_det * det_cost)


# --- ground-truth targets for the mask-point readouts ---------------------------


def mask_point_targets(
    gt: Polyline, spec: GridSpec, axis: str
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-column (or per-row) readout targets for one ground-truth lane.

    A column has an existence target of 1 when the lane crosses it; its
    coordinate target is the mean crossing row (clipped to the grid). The
    direction target is 1 when the lane's start has the smaller index.
    """
    rc = spec.metric_to_cell(gt.pts[:, :2])
    if axis == AXIS_COLUMNS:
        main, cross = rc[:, 1], rc[:, 0]
        n_idx, cross_max = spec.w, spec.h - 1
    elif axis == AXIS_ROWS:
        main, cross = rc[:, 0], rc[:, 1]
        n_idx, cross_max = spec.h, spec.w - 1
    else:
        raise ValueError(f"unknown axis {axis!r}")
    seg, j, t = integer_crossings(main, 0, n_idx - 1)
    j = j.astype(np.int64)
    crossing = cross[seg] + t * (cross[seg + 1] - cross[seg])
    sums = np.bincount(j, weights=crossing, minlength=n_idx)
    counts = np.bincount(j, minlength=n_idx)
    exist = (counts > 0).astype(np.float64)
    coords = np.zeros(n_idx)
    hit = counts > 0
    coords[hit] = np.clip(sums[hit] / counts[hit], 0.0, cross_max)
    direction = 1.0 if main[0] < main[-1] else 0.0
    return coords, exist, direction


# --- the full objective ----------------------------------------------------------


@dataclass
class LossBreakdown:
    top: float
    cls: float
    det: float
    mask: float
    mp: float
    total: float

    def recombine(self, coeffs: LossCoefficients) -> float:
        return (
            coeffs.top * self.top
            + coeffs.cls * self.cls
            + coeffs.det * self.det
            + coeffs.mask * self.mask
            + coeffs.mp * self.mp
        )


def _category_match(
    outputs: ModelOutputs, scene: Scene, coeffs: LossCoefficients, real: bool
) -> np.ndarray:
    """The matched pairs of one category as a (2, m) array: prediction
    indices over the row of ground-truth indices."""
    pred_idx = np.flatnonzero([p.is_real == real for p in outputs.predictions])
    gt_idx = np.flatnonzero([flag == real for flag in scene.is_real])
    assignment = match_instances(
        [outputs.predictions[i] for i in pred_idx],
        [scene.centerlines[g] for g in gt_idx],
        coeffs.cls,
        coeffs.det,
    )
    i, g = np.array(assignment.pairs, dtype=np.int64).reshape(-1, 2).T
    return np.stack([pred_idx[i], gt_idx[g]])


def total_loss(
    outputs: ModelOutputs, scene: Scene, coeffs: LossCoefficients | None = None
) -> LossBreakdown:
    """Eq.-style composite objective over one scene.

    Real and virtual predictions are matched to their own ground-truth
    categories; matched predictions supervise geometry, masks, and mask
    points, every prediction supervises classification, and all adjacency
    entries supervise topology (unmatched rows and columns as negatives).
    Per-pair terms are averaged over the real pairs, then the virtual ones.
    """
    coeffs = coeffs or LossCoefficients()
    preds = outputs.predictions
    n = len(preds)
    if outputs.adjacency.shape != (n, n):
        raise ValueError("adjacency must be square over all predictions")
    if n == 0:
        return LossBreakdown(top=0.0, cls=0.0, det=0.0, mask=0.0, mp=0.0, total=0.0)
    # matched prediction i[p] and ground truth g[p] of pair p
    i, g = np.concatenate(
        [_category_match(outputs, scene, coeffs, real) for real in (True, False)], axis=1
    )

    # classification: matched predictions are positives
    scores = np.array([p.score for p in preds])
    cls_targets = np.zeros(n)
    cls_targets[i] = 1.0
    l_cls = float(np.mean(focal_loss(scores, cls_targets)))

    # geometry: mean L1 on matched point sets
    l_det = 0.0
    if i.size:
        pts = np.stack([preds[a].points.pts for a in i])
        gt_pts = np.stack([resample_polyline(scene.centerlines[b], pts.shape[1]).pts for b in g])
        l_det = float(np.mean(np.mean(np.abs(pts - gt_pts), axis=(1, 2))))

    # topology: ground-truth adjacency pulled through the matching
    adj_target = np.zeros((n, n))
    adj_target[np.ix_(i, i)] = scene.adjacency[np.ix_(g, g)]
    l_top = float(np.mean(focal_loss(outputs.adjacency, adj_target)))

    # instance masks: bce + dice against rasterized ground truth
    l_mask = 0.0
    if outputs.mask_logits is not None and i.size:
        gt_masks = render_gt_masks(scene, outputs.grid)
        probs = (sigmoid(outputs.mask_logits[a]) for a in i)
        l_mask = float(np.mean([
            bce_loss(p, gt_masks[b]) + dice_loss(p, gt_masks[b]) for p, b in zip(probs, g)
        ]))

    # mask points: coordinates, existence, direction, both readout axes
    l_mp = 0.0
    if outputs.col_readouts is not None and i.size:
        terms = []
        for a, b in zip(i, g):
            term = 0.0
            for axis, readout in (
                (AXIS_COLUMNS, outputs.col_readouts[a]),
                (AXIS_ROWS, outputs.row_readouts[a]),
            ):
                coords_t, exist_t, dir_t = mask_point_targets(
                    scene.centerlines[b], outputs.grid, axis
                )
                covered = exist_t > 0.0
                if np.any(covered):
                    term += l1_loss(readout.coords[covered], coords_t[covered])
                term += bce_loss(readout.existence, exist_t)
                term += float(focal_loss(readout.direction, dir_t))
            terms.append(term)
        l_mp = float(np.mean(terms))

    breakdown = LossBreakdown(top=l_top, cls=l_cls, det=l_det, mask=l_mask, mp=l_mp, total=0.0)
    breakdown.total = breakdown.recombine(coeffs)
    return breakdown


# --- gradient verification harness ------------------------------------------------


def _softargmax_coord(logits: np.ndarray) -> float:
    p = softmax(logits)
    return float(np.arange(logits.size, dtype=np.float64) @ p)


def _softargmax_grad(logits: np.ndarray) -> np.ndarray:
    p = softmax(logits)
    c = float(np.arange(logits.size, dtype=np.float64) @ p)
    return p * (np.arange(logits.size, dtype=np.float64) - c)


def _binary(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape).astype(np.float64)


def _draw_l1(rng: np.random.Generator) -> dict:
    target = rng.normal(0.0, 1.0, size=6)
    offset = rng.uniform(0.2, 1.0, size=6) * rng.choice([-1.0, 1.0], size=6)
    return {"pred": target + offset, "target": target}


# term -> (draw a point, the loss at x, its gradient at x): x takes the place
# of the point's first entry, and the other entries stay fixed
GRAD_CHECK_TERMS = {
    "focal": (
        lambda rng: {"p": rng.uniform(0.05, 0.95, size=6), "y": _binary(rng, 6),
                     "alpha": 0.25, "gamma": 2.0},
        lambda x, pt: float(np.sum(focal_loss(x, pt["y"], pt["alpha"], pt["gamma"]))),
        lambda x, pt: focal_grad(x, pt["y"], pt["alpha"], pt["gamma"]),
    ),
    "bce": (
        lambda rng: {"p": rng.uniform(0.05, 0.95, size=6), "t": _binary(rng, 6)},
        lambda x, pt: bce_loss(x, pt["t"]),
        lambda x, pt: bce_grad(x, pt["t"]),
    ),
    "l1": (
        _draw_l1,
        lambda x, pt: l1_loss(x, pt["target"]),
        lambda x, pt: l1_grad(x, pt["target"]),
    ),
    "dice": (
        lambda rng: {"pred": rng.uniform(0.1, 0.9, size=(3, 3)), "gt": _binary(rng, (3, 3))},
        lambda x, pt: dice_loss(x, pt["gt"]),
        lambda x, pt: dice_grad(x, pt["gt"]),
    ),
    "softargmax": (
        lambda rng: {"logits": rng.normal(0.0, 3.0, size=8)},
        lambda x, pt: _softargmax_coord(x),
        lambda x, pt: _softargmax_grad(x),
    ),
}


def _grad_check_term(term: str) -> tuple:
    try:
        return GRAD_CHECK_TERMS[term]
    except KeyError:
        raise ValueError(f"unknown term {term!r}") from None


def random_grad_check_point(term: str, rng: np.random.Generator) -> dict:
    """Random evaluation point kept away from clamps and kinks."""
    return _grad_check_term(term)[0](rng)


def analytic_grad_check(term: str, point: dict, eps: float = 1e-6) -> float:
    """Max relative error between the hand-derived gradient and central
    finite differences, normalized by the largest numeric component."""
    _, loss, gradient = _grad_check_term(term)
    x0 = np.asarray(next(iter(point.values())), dtype=np.float64)
    numeric = finite_diff_grad(lambda x: loss(x, point), x0, eps=eps)
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(gradient(x0, point) - numeric))) / scale


def run_grad_checks(seed: int = 0, n_points: int = 50) -> dict[str, float]:
    """Worst relative gradient error per term over random evaluation points."""
    rng = np.random.default_rng(seed)
    return {
        term: max(
            analytic_grad_check(term, random_grad_check_point(term, rng))
            for _ in range(n_points)
        )
        for term in GRAD_CHECK_TERMS
    }
