"""End-to-end pipeline: BEV features -> decoder -> topology -> masks -> fusion
-> metrics, plus the ablation harness and the prediction file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import BevGrid, GridSpec, mlp_forward, sigmoid, sinusoidal_pe_2d
from .config import ConfigError, PipelineConfig
from .decoder import CenterlinePrediction, QuerySet, decoder_forward, instance_mask_logits
from .geometry import Polyline
from .losses import ModelOutputs
from .metrics import EvalReport, _frechet_matrix, det_l, mask_ap, top_ll
from .points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    MaskPointReadout,
    encode_mask_query,
    fuse_points,
    predict_direction,
    predict_existence,
    sample_mask_points,
    select_point_set,
)
from .scene import Scene, render_bev_features, render_gt_masks
from .sdmap import SemanticEmbeddingTable, rasterize_sdmap, sd_interact
from .topology import enhance_queries, predict_topology
from .weights import ModelWeights

PREDICTIONS_SCHEMA_VERSION = 1


@dataclass
class PipelineResult:
    outputs: ModelOutputs
    report: EvalReport
    bev: BevGrid


def _readouts(
    q: np.ndarray,
    mask_logits: np.ndarray,
    preds: list[CenterlinePrediction],
    weights: ModelWeights,
    cfg: PipelineConfig,
) -> tuple[list[MaskPointReadout], list[MaskPointReadout]]:
    mh = weights.mask_head
    cols, rows = [], []
    for i, pred in enumerate(preds):
        if cfg.pgm:
            q_prime = encode_mask_query(q[i], pred.points, mh)
        else:
            q_prime = mlp_forward(mh.query_mlp, q[i])
        m = mask_logits[i]
        cols.append(
            MaskPointReadout(
                axis=AXIS_COLUMNS,
                coords=sample_mask_points(m, AXIS_COLUMNS),
                existence=predict_existence(m, mh.exist_col, AXIS_COLUMNS),
                direction=predict_direction(q_prime, mh.dir_col),
            )
        )
        rows.append(
            MaskPointReadout(
                axis=AXIS_ROWS,
                coords=sample_mask_points(m, AXIS_ROWS),
                existence=predict_existence(m, mh.exist_row, AXIS_ROWS),
                direction=predict_direction(q_prime, mh.dir_row),
            )
        )
    return cols, rows


def run_pipeline(
    scene: Scene,
    cfg: PipelineConfig,
    weights: ModelWeights,
    bev: BevGrid | None = None,
) -> PipelineResult:
    """Run detection, topology, masks, and fusion on one scene and score it.

    The BEV features are rendered from the scene unless provided. Toggles:
    ``sd`` augments features with the SD map, ``pgm`` switches mask queries to
    points-guided encoding, ``pmf`` fuses mask readouts into real centerlines
    (requires ``pgm``), ``hybrid_attention``/``rvs_self_attention`` select the
    decoder's attention paths.
    """
    cfg.check_runnable()
    if bev is None:
        bev = render_bev_features(scene, cfg, cfg.noise_sigma)
    b = bev
    if cfg.sd:
        table = SemanticEmbeddingTable(weights.semantic_table)
        e_s = rasterize_sdmap(scene.sd_instances, b.spec, table)
        e_p = sinusoidal_pe_2d(b.h, b.w, b.c, b.spec)
        b = sd_interact(b, e_s, e_p, weights.sd)

    queries = QuerySet(weights.decoder.real_queries, weights.decoder.virtual_queries)
    preds, final_q = decoder_forward(queries, b, weights, cfg)
    q = np.stack([p.query for p in preds])

    decoder_points = np.stack([p.points.pts for p in preds])
    enhanced = enhance_queries(
        q, decoder_points, weights.topology.query_mlp, weights.topology.points_mlp
    )
    adjacency = predict_topology(enhanced, weights.topology.classifier)

    mask_logits = instance_mask_logits(q, decoder_points, b, weights, cfg.pgm)
    col_readouts, row_readouts = _readouts(q, mask_logits, preds, weights, cfg)

    if cfg.pmf:
        for i, pred in enumerate(preds):
            if not pred.is_real:
                continue
            readout = select_point_set(
                col_readouts[i], row_readouts[i], cfg.validity_threshold
            )
            pred.points = fuse_points(
                pred.points,
                readout,
                b.spec,
                cfg.k,
                outlier_threshold=cfg.outlier_threshold,
                validity_threshold=cfg.validity_threshold,
            )

    outputs = ModelOutputs(
        predictions=preds,
        adjacency=adjacency,
        grid=b.spec,
        mask_logits=mask_logits,
        col_readouts=col_readouts,
        row_readouts=row_readouts,
    )
    report = evaluate_outputs(outputs, scene, cfg)
    return PipelineResult(outputs=outputs, report=report, bev=bev)


def score_predictions(
    lines: list[Polyline],
    scores: np.ndarray,
    adjacency: np.ndarray,
    pred_masks: list[np.ndarray] | None,
    scene: Scene,
    cfg: PipelineConfig,
    grid: GridSpec,
) -> EvalReport:
    """DET_l, TOP_ll and AP_l of predictions against the scene's ground truth.

    The Frechet matrix is built once and shared by DET_l and TOP_ll. Masks
    are logits or booleans on ``grid``; without them AP_l is 0.
    """
    gts = scene.centerlines
    dist = _frechet_matrix(lines, gts)
    det, det_per = det_l(lines, scores, gts, cfg.det_thresholds, dist=dist)
    top = top_ll(
        lines, scores, adjacency, gts, scene.adjacency, cfg.top_match_threshold, dist=dist
    )
    ap, ap_per = 0.0, {}
    if pred_masks is not None:
        gt_masks = list(render_gt_masks(scene, grid))
        ap, ap_per = mask_ap(pred_masks, scores, gt_masks, cfg.mask_iou_thresholds)
    return EvalReport(
        det_l=det, top_ll=top, ap_l=ap, det_per_threshold=det_per, ap_per_threshold=ap_per
    )


def evaluate_outputs(outputs: ModelOutputs, scene: Scene, cfg: PipelineConfig) -> EvalReport:
    """Score in-memory predictions against the scene's ground truth."""
    preds = outputs.predictions
    masks = None if outputs.mask_logits is None else list(outputs.mask_logits)
    return score_predictions(
        [p.points for p in preds],
        np.array([p.score for p in preds]),
        outputs.adjacency,
        masks,
        scene,
        cfg,
        outputs.grid,
    )


# --- prediction file format ---------------------------------------------------


def _mask_rle(mask_bool: np.ndarray) -> list[list[int]]:
    """Runs of set cells over the row-major flattened mask: [start, stop)."""
    flat = np.asarray(mask_bool, dtype=bool).reshape(-1)
    padded = np.concatenate([[False], flat, [False]])
    return np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).tolist()


def _mask_from_rle(runs: list[list[int]], h: int, w: int) -> np.ndarray:
    flat = np.zeros(h * w, dtype=bool)
    for start, stop in runs:
        flat[start:stop] = True
    return flat.reshape(h, w)


def predictions_to_dict(outputs: ModelOutputs) -> dict:
    doc = {
        "schema_version": PREDICTIONS_SCHEMA_VERSION,
        "kind": "lanetopo-predictions",
        "units": "meters",
        "predictions": [
            {
                "points": p.points.pts.tolist(),
                "score": float(p.score),
                "is_real": bool(p.is_real),
            }
            for p in outputs.predictions
        ],
        "adjacency": outputs.adjacency.tolist(),
        "grid": {
            "h": outputs.grid.h,
            "w": outputs.grid.w,
            "x_min": outputs.grid.x_min,
            "y_min": outputs.grid.y_min,
            "resolution": outputs.grid.resolution,
        },
    }
    if outputs.mask_logits is not None:
        doc["masks"] = {
            "h": outputs.grid.h,
            "w": outputs.grid.w,
            "encoding": "rle-0.5",
            "instances": [
                _mask_rle(sigmoid(m) >= 0.5) for m in outputs.mask_logits
            ],
        }
    return doc


def dump_predictions_json(outputs: ModelOutputs) -> str:
    """Canonical compact JSON: sorted keys and no whitespace, one line."""
    return json.dumps(predictions_to_dict(outputs), sort_keys=True, separators=(",", ":")) + "\n"


def save_predictions(outputs: ModelOutputs, path: str | Path) -> None:
    Path(path).write_text(dump_predictions_json(outputs))


def _numeric_field(values, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """``values`` as a finite float64 array of ``shape``, or a ValueError
    naming ``field``."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{field} must hold numbers") from None
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)  # an empty matrix is written as []
    if arr.shape != shape:
        raise ValueError(f"{field} must have shape {shape}, got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        raise ValueError(f"{field} must be finite, got {arr[at]} at index {list(at)}")
    return arr


def evaluate_prediction_file(
    pred_path: str | Path, scene: Scene, cfg: PipelineConfig
) -> EvalReport:
    """Score a saved prediction document against a scene.

    A malformed document raises one ``ValueError`` naming the bad field.
    """
    doc = json.loads(Path(pred_path).read_text())
    if doc.get("kind") != "lanetopo-predictions":
        raise ValueError("not a recognized predictions document")
    lines = []
    for i, p in enumerate(doc["predictions"]):
        try:
            lines.append(Polyline(np.array(p["points"])))
        except ValueError as exc:
            raise ValueError(f"predictions[{i}].points: {exc}") from None
    n = len(lines)
    scores = _numeric_field([p["score"] for p in doc["predictions"]], "predictions[].score", (n,))
    adjacency = _numeric_field(doc["adjacency"], "adjacency", (n, n))
    pred_masks = None
    grid = cfg.grid
    if "masks" in doc:
        h, w = doc["masks"]["h"], doc["masks"]["w"]
        if (grid.h, grid.w) != (h, w):
            raise ValueError("prediction masks do not match the configured grid")
        if len(doc["masks"]["instances"]) != n:
            raise ValueError(f"masks.instances must hold {n} masks, one per prediction")
        pred_masks = [_mask_from_rle(runs, h, w) for runs in doc["masks"]["instances"]]
    return score_predictions(lines, scores, adjacency, pred_masks, scene, cfg, grid)


# --- ablation harness -----------------------------------------------------------


def ablation_grid(
    scene: Scene, cfg: PipelineConfig, weights: ModelWeights
) -> list[dict]:
    """Run every {pgm, pmf, sd} combination on one scene.

    Valid combinations produce metric rows; the invalid fusion-without-masks
    combinations are reported with an error marker. The row layout mirrors a
    module-ablation table: one toggle triple plus the metric columns.
    """
    rows = []
    for pgm in (False, True):
        for pmf in (False, True):
            for sd in (False, True):
                row: dict = {"pgm": pgm, "pmf": pmf, "sd": sd}
                run_cfg = PipelineConfig.from_dict(
                    {**cfg.to_dict(), "pgm": pgm, "pmf": pmf, "sd": sd}
                )
                try:
                    result = run_pipeline(scene, run_cfg, weights)
                except ConfigError as exc:
                    row["error"] = str(exc)
                else:
                    row["det_l"] = result.report.det_l
                    row["top_ll"] = result.report.top_ll
                    row["ap_l"] = result.report.ap_l
                rows.append(row)
    return rows
