"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Every workload runs in cycles. A cycle is a fixed list of scene shapes, and
only the geometry changes from cycle to cycle and from seed to seed, so each
cycle does the same amount of work. The runner runs whole cycles only,
which keeps the op mix of a run fixed.

The program is reached through module attributes (``pipeline.run_pipeline``,
not a name imported into this module), so the traced run sees every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lanetopo import bev, config, decoder, geometry, losses, pipeline, scene, weights

# (lanes per side, intersections) of the scenes in one cycle of desk-ablation
# and eval-near: 1, 2 and 3 ground-truth lanes, the last with a virtual
# connector and adjacency edges
SHAPES = ((1, 0), (2, 0), (1, 1))

# full-pair keeps scoring small: one group of 1 or 2 lanes, no intersection
FULL_PAIR_SHAPES = ((1, 0), (2, 0))

# full-pair model: the full-size architecture (4 decoder layers, 8 heads,
# 4 sampling points, 100 x 200 grid at 0.5 m, 8-head SD interaction) with
# 48 queries and 32 channels, so that a run of the benchmark holds several
# cycles; the full 300-query, 256-channel model takes about 40 s per op
FULL_PAIR_SIZE = {"n_real": 24, "n_virtual": 24, "channels": 32, "ffn_dim": 64}

# eval-near: offsets of near copies (m), in bands around the 1/2/3 m
# detection thresholds, and the clearance of far false positives
NEAR_BANDS = ((0.2, 0.8), (1.2, 1.8), (2.2, 2.8), (3.3, 4.5))
FAR_CLEARANCE = 6.0
MASK_LOGIT = 8.0
NEAR_POINTS = 11

WARMUP_CYCLE = 1 << 20
WORKLOAD_IDS = {"desk-ablation": 1, "full-pair": 2, "eval-near": 3}

# recorded outputs of this benchmark's inputs, written by record.py
RECORDED_PATH = Path(__file__).with_name("recorded.json")
TOLERANCE = 1e-9


def load_recorded() -> dict:
    if not RECORDED_PATH.is_file():
        return {}
    return json.loads(RECORDED_PATH.read_text())


def input_seed(seed: int, workload: str, cycle: int, slot: int, stream: int = 0) -> int:
    """Seed of one generated input, a pure function of its position."""
    seq = np.random.SeedSequence([seed, WORKLOAD_IDS[workload], cycle, slot, stream])
    return int(seq.generate_state(1)[0])


def make_scene(seed: int, workload: str, cycle: int, slot: int, shape) -> scene.Scene:
    n_lanes, intersections = shape
    params = scene.SceneParams(n_lanes=n_lanes, intersections=intersections)
    return scene.synth_scene(input_seed(seed, workload, cycle, slot), params)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _unit_interval(name: str, value) -> list[str]:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"{name} is not a finite number: {value!r}"]
    if not 0.0 <= value <= 1.0:
        return [f"{name} = {value!r} lies outside [0, 1]"]
    return []


@dataclass
class Item:
    """One op's input; ``key`` names it within a run (cycle/slot[/sd])."""

    key: str
    payload: object


class Workload:
    name = ""

    def __init__(self, seed: int, recorded: dict | None = None, workdir: Path | None = None):
        self.seed = seed
        self.recorded = (recorded or {}).get(self.name, {}).get(str(seed), {})
        self.workdir = workdir

    def setup(self) -> None:
        """Configuration and weights: the part of start-up that setup_s times."""

    def warmup(self) -> list[Item]:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Item]:
        raise NotImplementedError

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> list[str]:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def release(self, item: Item) -> None:
        """Drop what the item holds once its op is checked."""

    def pred_bytes(self, item: Item, out) -> int | None:
        return None


# --- desk-ablation ---------------------------------------------------------------


def check_ablation_rows(rows) -> list[str]:
    """Exactly the two pmf-without-pgm rows carry an error; the other six
    rows have finite DET_l/TOP_ll/AP_l in [0, 1]."""
    problems = []
    if not isinstance(rows, list) or len(rows) != 8:
        return [f"expected 8 ablation rows, got {rows!r:.80}"]
    combos = {(r.get("pgm"), r.get("pmf"), r.get("sd")) for r in rows}
    if len(combos) != 8:
        problems.append("ablation rows do not cover every {pgm, pmf, sd} combination")
    n_errors = 0
    for r in rows:
        rejected = bool(r.get("pmf")) and not r.get("pgm")
        tag = f"row pgm={r.get('pgm')} pmf={r.get('pmf')} sd={r.get('sd')}"
        if "error" in r:
            n_errors += 1
            if not rejected:
                problems.append(f"{tag} carries an error: {r['error']}")
            continue
        if rejected:
            problems.append(f"{tag} ran although pmf needs pgm")
            continue
        for metric in ("det_l", "top_ll", "ap_l"):
            problems += _unit_interval(f"{tag} {metric}", r.get(metric))
    if n_errors != 2:
        problems.append(f"{n_errors} rows carry an error, expected 2")
    return problems


class DeskAblation(Workload):
    name = "desk-ablation"

    def setup(self) -> None:
        self.cfg = config.PipelineConfig.desk()
        self.weights = weights.init_model_weights(self.cfg)

    def _items(self, index: int) -> list[Item]:
        return [
            Item(f"{index}/{slot}", make_scene(self.seed, self.name, index, slot, shape))
            for slot, shape in enumerate(SHAPES)
        ]

    def warmup(self) -> list[Item]:
        return self._items(WARMUP_CYCLE)[:1]

    def cycle(self, index: int) -> list[Item]:
        return self._items(index)

    def op(self, item: Item):
        return pipeline.ablation_grid(item.payload, self.cfg, self.weights)

    def check(self, item: Item, out) -> list[str]:
        return check_ablation_rows(out)


# --- full-pair -------------------------------------------------------------------


def output_digest(outputs) -> dict[str, float]:
    """Order-sensitive sums over the decoded outputs: points, scores,
    adjacency and the on-cell count of each instance mask. The bytes of the
    predictions file are not covered, so a format change keeps the digest."""
    preds = outputs.predictions
    w = np.arange(1, len(preds) + 1, dtype=np.float64)
    pts = np.stack([p.points.pts for p in preds])
    scores = np.array([p.score for p in preds], dtype=np.float64)
    adj = np.asarray(outputs.adjacency, dtype=np.float64)
    on = (bev.sigmoid(np.asarray(outputs.mask_logits)) >= 0.5).reshape(len(preds), -1).sum(axis=1)
    return {
        "points": float(pts.sum()),
        "points_weighted": float(pts.sum(axis=(1, 2)) @ w),
        "points_abs": float(np.abs(pts).sum()),
        "scores": float(scores.sum()),
        "scores_weighted": float(scores @ w),
        "adjacency": float(adj.sum()),
        "adjacency_weighted": float(w @ adj @ np.sqrt(w)),
        "mask_on": float(on.sum()),
        "mask_on_weighted": float(on @ w),
    }


def check_full_pair(outputs, report, text, cfg, expected: dict | None) -> list[str]:
    """Counts, shapes and finiteness of one run's outputs, the report in
    [0, 1], a non-empty predictions file, and the digest against the
    recorded one when there is one."""
    problems = []
    n, k = cfg.n_queries, cfg.k
    preds = outputs.predictions
    if len(preds) != n:
        return [f"{len(preds)} predictions, expected {n}"]
    for i, p in enumerate(preds):
        pts = np.asarray(p.points.pts)
        if pts.shape != (k, 3) or not np.all(np.isfinite(pts)):
            problems.append(f"prediction {i} points have shape {pts.shape} or are not finite")
        if not (math.isfinite(p.score) and 0.0 <= p.score <= 1.0):
            problems.append(f"prediction {i} score {p.score!r} is not a probability")
        if bool(p.is_real) != (i < cfg.n_real):
            problems.append(f"prediction {i} has the wrong category")
    adj = np.asarray(outputs.adjacency)
    if adj.shape != (n, n) or not np.all(np.isfinite(adj)) or adj.min() < 0 or adj.max() > 1:
        problems.append(f"adjacency has shape {adj.shape} or values outside [0, 1]")
    masks = outputs.mask_logits
    grid = cfg.grid
    if masks is None or np.shape(masks) != (n, grid.h, grid.w) or not np.all(np.isfinite(masks)):
        problems.append(f"mask logits have shape {np.shape(masks)} or are not finite")
    for name, readouts, length in (
        ("column", outputs.col_readouts, grid.w),
        ("row", outputs.row_readouts, grid.h),
    ):
        if readouts is None or len(readouts) != n:
            problems.append(f"expected {n} {name} readouts")
            continue
        for r in readouts:
            if r.coords.shape != (length,) or not (
                np.all(np.isfinite(r.coords)) and np.all(np.isfinite(r.existence))
            ):
                problems.append(f"a {name} readout has the wrong length or is not finite")
                break
    for metric in ("det_l", "top_ll", "ap_l"):
        problems += _unit_interval(metric, getattr(report, metric, None))
    if not isinstance(text, str) or not text:
        problems.append("the predictions file is empty")
    if problems or expected is None:
        return problems
    digest = output_digest(outputs)
    for key, want in expected.items():
        got = digest.get(key)
        if got is None or not close(got, want):
            problems.append(f"digest {key} = {got!r}, recorded {want!r}")
    return problems


class FullPair(Workload):
    name = "full-pair"

    def setup(self) -> None:
        self.cfg_off = config.PipelineConfig(**FULL_PAIR_SIZE)
        self.cfg_on = config.PipelineConfig(**FULL_PAIR_SIZE, sd=True)
        self.weights = weights.init_model_weights(self.cfg_off)

    def _items(self, index: int, shapes) -> list[Item]:
        items = []
        for slot, shape in enumerate(shapes):
            sc = make_scene(self.seed, self.name, index, slot, shape)
            for cfg in (self.cfg_off, self.cfg_on):
                items.append(Item(f"{index}/{slot}/{int(cfg.sd)}", (sc, cfg)))
        return items

    def warmup(self) -> list[Item]:
        return self._items(WARMUP_CYCLE, FULL_PAIR_SHAPES[:1])

    def cycle(self, index: int) -> list[Item]:
        return self._items(index, FULL_PAIR_SHAPES)

    def op(self, item: Item):
        sc, cfg = item.payload
        result = pipeline.run_pipeline(sc, cfg, self.weights)
        return result, pipeline.dump_predictions_json(result.outputs)

    def check(self, item: Item, out) -> list[str]:
        result, text = out
        _, cfg = item.payload
        return check_full_pair(
            result.outputs, result.report, text, cfg, self.recorded.get(item.key)
        )

    def pred_bytes(self, item: Item, out) -> int:
        return len(out[1].encode("utf-8"))


# --- eval-near -------------------------------------------------------------------


def _mask_logits(cells, grid) -> np.ndarray:
    m = np.full((grid.h, grid.w), -MASK_LOGIT)
    for r, c in cells:
        m[r, c] = MASK_LOGIT
    return m


def _far_line(rng, gt_points: np.ndarray) -> np.ndarray | None:
    """A straight 30 m line whose points all keep FAR_CLEARANCE from every
    ground-truth point, or None when 50 draws found no room."""
    for _ in range(50):
        start = rng.uniform([-45.0, -22.0], [45.0, 22.0])
        heading = rng.uniform(0.0, 2.0 * np.pi)
        end = start + 30.0 * np.array([np.cos(heading), np.sin(heading)])
        if not (-49.0 < end[0] < 49.0 and -24.0 < end[1] < 24.0):
            continue
        xy = np.linspace(start, end, NEAR_POINTS)
        gap = np.linalg.norm(xy[:, None, :] - gt_points[None, :, :2], axis=2).min()
        if gap > FAR_CLEARANCE:
            return np.column_stack([xy, np.zeros(NEAR_POINTS)])
    return None


def near_document(sc: scene.Scene, grid, rng: np.random.Generator):
    """Predictions close to the ground truth: 1-3 shifted copies of each GT
    lane, Frechet offsets spread over NEAR_BANDS, 1-2 far false positives,
    adjacency that follows the GT graph and masks traced from each line."""
    lines, sources = [], []
    for g, lane in enumerate(sc.centerlines):
        base = geometry.resample_polyline(lane, NEAR_POINTS).pts
        chord = base[-1, :2] - base[0, :2]
        normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
        for _ in range(int(rng.integers(1, 4))):
            lo, hi = NEAR_BANDS[int(rng.integers(len(NEAR_BANDS)))]
            offset = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
            pts = base.copy()
            pts[:, :2] += offset * normal
            lines.append(pts)
            sources.append(g)
    gt_points = np.concatenate([lane.pts for lane in sc.centerlines])
    for _ in range(int(rng.integers(1, 3))):
        far = _far_line(rng, gt_points)
        if far is not None:
            lines.append(far)
            sources.append(-1)

    n = len(lines)
    scores = rng.uniform(0.05, 0.95, size=n)
    adjacency = rng.uniform(0.0, 0.45, size=(n, n))
    for i, a in enumerate(sources):
        for j, b in enumerate(sources):
            if a >= 0 and b >= 0 and sc.adjacency[a, b]:
                adjacency[i, j] = rng.uniform(0.55, 0.95)
    preds, masks = [], []
    for pts, src, score in zip(lines, sources, scores):
        line = geometry.Polyline(pts)
        preds.append(
            decoder.CenterlinePrediction(
                points=line,
                score=float(score),
                is_real=bool(sc.is_real[src]) if src >= 0 else True,
                query=np.zeros(1),
            )
        )
        masks.append(_mask_logits(scene.lane_cells(line, grid), grid))
    return losses.ModelOutputs(
        predictions=preds, adjacency=adjacency, grid=grid, mask_logits=np.stack(masks)
    )


def exact_document(sc: scene.Scene, grid):
    """The ground truth itself as predictions; it must score 1.0 everywhere."""
    n = sc.n_lanes
    scores = np.linspace(0.95, 0.55, n)
    preds = [
        decoder.CenterlinePrediction(
            points=lane, score=float(s), is_real=bool(r), query=np.zeros(1)
        )
        for lane, s, r in zip(sc.centerlines, scores, sc.is_real)
    ]
    masks = scene.render_gt_masks(sc, grid) * (2.0 * MASK_LOGIT) - MASK_LOGIT
    return losses.ModelOutputs(
        predictions=preds,
        adjacency=sc.adjacency.astype(np.float64),
        grid=grid,
        mask_logits=masks,
    )


def report_values(report) -> dict[str, float]:
    values = {"det_l": report.det_l, "top_ll": report.top_ll, "ap_l": report.ap_l}
    for t, v in report.det_per_threshold.items():
        values[f"det@{t}"] = v
    for t, v in report.ap_per_threshold.items():
        values[f"ap@{t}"] = v
    return values


def report_digest(values: dict[str, float]) -> list[float]:
    """Plain and position-weighted sums of a report's values, by field name."""
    ordered = [values[k] for k in sorted(values)]
    return [float(sum(ordered)), float(sum(i * v for i, v in enumerate(ordered, 1)))]


def check_eval_report(report, expected: list[float] | None, exact: bool) -> list[str]:
    """Scores in [0, 1]; 1.0 everywhere for the exact-GT document; the
    recorded report digest, when there is one, within TOLERANCE."""
    try:
        values = report_values(report)
    except AttributeError as exc:
        return [f"not an evaluation report: {exc}"]
    problems = []
    for name, value in values.items():
        problems += _unit_interval(name, value)
    if problems:
        return problems
    if exact:
        problems += [
            f"exact-GT document scores {name} = {values[name]!r}, expected 1.0"
            for name in ("det_l", "top_ll", "ap_l")
            if not close(values[name], 1.0)
        ]
    if expected is not None:
        got = report_digest(values)
        if not all(close(g, w) for g, w in zip(got, expected)):
            problems.append(f"report digest {got!r}, recorded {expected!r}: {values}")
    return problems


class EvalNear(Workload):
    name = "eval-near"

    def setup(self) -> None:
        self.cfg = config.PipelineConfig()

    def _write(self, key: str, outputs) -> Path:
        path = self.workdir / f"pred-{key.replace('/', '-')}.json"
        pipeline.save_predictions(outputs, path)
        return path

    def warmup(self) -> list[Item]:
        # the exact-GT document of the run; the scene has an intersection so
        # that TOP_ll scores real edges
        shape = SHAPES[-1]
        sc = make_scene(self.seed, self.name, WARMUP_CYCLE, 0, shape)
        path = self._write("exact", exact_document(sc, self.cfg.grid))
        return [Item("exact", (path, sc))]

    def cycle(self, index: int) -> list[Item]:
        items = []
        for slot, shape in enumerate(SHAPES):
            sc = make_scene(self.seed, self.name, index, slot, shape)
            rng = np.random.default_rng(input_seed(self.seed, self.name, index, slot, 1))
            key = f"{index}/{slot}"
            items.append(Item(key, (self._write(key, near_document(sc, self.cfg.grid, rng)), sc)))
        return items

    def op(self, item: Item):
        path, sc = item.payload
        return pipeline.evaluate_prediction_file(path, sc, self.cfg)

    def check(self, item: Item, out) -> list[str]:
        return check_eval_report(out, self.recorded.get(item.key), item.key == "exact")

    def release(self, item: Item) -> None:
        item.payload[0].unlink(missing_ok=True)

    def pred_bytes(self, item: Item, out) -> int:
        return item.payload[0].stat().st_size


WORKLOADS = {w.name: w for w in (DeskAblation, FullPair, EvalNear)}
