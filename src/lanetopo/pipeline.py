"""End-to-end pipeline: BEV features -> decoder -> topology -> masks -> fusion
-> metrics, plus the ablation harness and the prediction file format.
"""

from __future__ import annotations

import base64
import json
import zlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .bev import BevGrid, GridSpec, NonFiniteError, binarize_logits, sinusoidal_pe_2d
from .config import ConfigError, PipelineConfig
from .decoder import CenterlinePrediction, decoder_forward, instance_mask_logits
from .geometry import Polyline
from .metrics import (
    DET_THRESHOLDS,
    MASK_IOU_THRESHOLDS,
    TOP_MATCH_THRESHOLD,
    EvalReport,
    _frechet_matrix,
    det_l,
    mask_ap,
    top_ll,
)
from .points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    MaskPointReadout,
    fuse_points,
    predict_direction,
    predict_existence,
    sample_mask_points,
    select_point_set,
)
from .scene import Scene, _flag, _objects, _polyline, render_bev_features, render_gt_masks
from .sdmap import rasterize_sdmap, sd_interact
from .topology import enhance_queries, predict_topology
from .weights import ModelWeights, check_weights

PREDICTIONS_SCHEMA_VERSION = 2
MASK_ENCODING = "bits-zlib-b64"
MASK_ZLIB_LEVEL = 6


@dataclass
class ModelOutputs:
    """Everything one forward pass produces, as :func:`infer` returns it and
    the training loss reads it.

    ``col_readouts`` and ``row_readouts`` hold one readout per prediction.
    From :func:`infer` they are lazy sequences: a readout is computed when
    it is read, so only fusion (the real rows) and
    :func:`~lanetopo.losses.total_loss` (all rows, once) pay for them.
    """

    predictions: list[CenterlinePrediction]
    adjacency: np.ndarray
    grid: GridSpec
    mask_logits: np.ndarray | None = None
    col_readouts: Sequence[MaskPointReadout] | None = None
    row_readouts: Sequence[MaskPointReadout] | None = None


@dataclass
class PipelineResult:
    outputs: ModelOutputs
    report: EvalReport


# Huge finite weights overflow inside these stages; their finiteness checks
# turn that into one NonFiniteError, so numpy does not warn first.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def _readouts(
    q_prime: np.ndarray,
    mask_logits: np.ndarray,
    weights: ModelWeights,
    axis: str,
    rows: slice = slice(None),
) -> list[MaskPointReadout]:
    """The ``axis`` readouts of the instances in ``rows``, all n by default.

    The coordinate and existence heads run once over those rows' mask logits,
    a view of them. The direction head runs over all n mask queries q', and
    the rows are taken from its output: a subset product can round
    differently from the all-row one, and the head costs one (n, c) MLP.
    Non-finite coordinates, existence or directions raise
    :class:`~lanetopo.bev.NonFiniteError`.
    """
    mh = weights.mask_head
    exist, direction = (mh.exist_col, mh.dir_col) if axis == AXIS_COLUMNS else (
        mh.exist_row, mh.dir_row)
    directions = predict_direction(q_prime, direction)[rows]
    coords = sample_mask_points(mask_logits[rows], axis)
    existence = predict_existence(mask_logits[rows], exist, axis)
    for name, values in (("coordinates", coords), ("existence", existence),
                         ("directions", directions)):
        if not np.isfinite(values).all():
            raise NonFiniteError(f"the {axis} mask readouts produced non-finite {name}")
    return [
        MaskPointReadout(axis=axis, coords=c, existence=e, direction=float(d))
        for c, e, d in zip(coords, existence, directions)
    ]


class LazyReadouts(Sequence):
    """One axis's readouts of all n instances, as a read-only sequence.

    Nothing is computed until an item is read; the first read runs
    :func:`_readouts` over all n rows and keeps the result. :meth:`rows`
    computes just the rows of a slice, each call anew.
    """

    def __init__(self, q_prime: np.ndarray, mask_logits: np.ndarray,
                 weights: ModelWeights, axis: str):
        self._args = (q_prime, mask_logits, weights, axis)
        self._all: list[MaskPointReadout] | None = None

    def rows(self, rows: slice) -> list[MaskPointReadout]:
        return _readouts(*self._args, rows=rows)

    def __len__(self) -> int:
        return len(self._args[0])

    def __getitem__(self, i):
        if self._all is None:
            self._all = _readouts(*self._args)
        return self._all[i]


@_QUIET_OVERFLOW
def sd_features(b: BevGrid, scene: Scene, weights: ModelWeights) -> BevGrid:
    """BEV features augmented with the scene's SD map: rasterize it, add the
    position encoding into the rasterized grid, and run the SD interaction."""
    sd_grid = rasterize_sdmap(scene.sd_instances, b.spec, weights.semantic_table)
    sd_grid.data += sinusoidal_pe_2d(b.spec, b.c).data
    return sd_interact(b, sd_grid, weights.sd)


@_QUIET_OVERFLOW
def infer(b: BevGrid, cfg: PipelineConfig, weights: ModelWeights) -> ModelOutputs:
    """Decoder, topology and mask logits on a feature grid.

    The final layer's mask queries q' are computed once, for all queries, and
    feed the mask logits. No mask readout is computed here:
    ``col_readouts``/``row_readouts`` are :class:`LazyReadouts` over the mask
    logits and q', computed for the rows a caller reads (:func:`fuse` asks
    for the real rows). Stops before fusion. Reads the ``pgm``,
    ``hybrid_attention`` and ``rvs_self_attention`` toggles, not ``sd`` or
    ``pmf``: an SD-map run passes the grid from :func:`sd_features`.
    """
    q, decoder_points, scores = decoder_forward(b, weights, cfg)
    enhanced = enhance_queries(
        q, decoder_points, weights.topology.query_mlp, weights.topology.points_mlp
    )
    adjacency = predict_topology(enhanced, weights.topology.classifier)

    mask_logits, q_prime = instance_mask_logits(q, decoder_points, b, weights, cfg.pgm)
    for name, tensor in (("points", decoder_points), ("scores", scores),
                         ("adjacency", adjacency), ("mask logits", mask_logits)):
        if not np.isfinite(tensor).all():
            raise NonFiniteError(f"infer produced non-finite {name}")
    n_real = len(weights.decoder.real_queries)
    predictions = [
        CenterlinePrediction(points=Polyline(pts), score=float(s), is_real=i < n_real, query=qi)
        for i, (pts, s, qi) in enumerate(zip(decoder_points, scores, q))
    ]
    return ModelOutputs(
        predictions=predictions,
        adjacency=adjacency,
        grid=b.spec,
        mask_logits=mask_logits,
        col_readouts=LazyReadouts(q_prime, mask_logits, weights, AXIS_COLUMNS),
        row_readouts=LazyReadouts(q_prime, mask_logits, weights, AXIS_ROWS),
    )


def fuse(outputs: ModelOutputs) -> ModelOutputs:
    """Points-mask fusion: each real prediction's points refined by its
    selected mask readout. Returns new predictions; ``outputs`` is unchanged,
    so one :func:`infer` result serves both a fused and an unfused run.

    The real predictions come first, as :func:`infer` orders them, and
    their readouts are asked for in one batched call per axis
    (:meth:`LazyReadouts.rows`); no virtual row's readout is computed.
    """
    real = slice(sum(p.is_real for p in outputs.predictions))
    cols, rows = outputs.col_readouts.rows(real), outputs.row_readouts.rows(real)
    preds = list(outputs.predictions)
    for i, (col, row) in enumerate(zip(cols, rows)):
        readout = select_point_set(col, row)
        points = fuse_points(preds[i].points, readout, outputs.grid, len(preds[i].points))
        preds[i] = replace(preds[i], points=points)
    return replace(outputs, predictions=preds)


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
    decoder's attention paths. The run is :func:`sd_features` (with ``sd``),
    :func:`infer`, :func:`fuse` (with ``pmf``) and :func:`evaluate_outputs`.
    """
    check_weights(cfg, weights)
    cfg.check_runnable()
    if bev is None:
        bev = render_bev_features(scene, cfg)
    if cfg.sd:
        # rebound, so the raw features are not kept alive while infer runs
        bev = sd_features(bev, scene, weights)
    outputs = infer(bev, cfg, weights)
    if cfg.pmf:
        outputs = fuse(outputs)
    report = evaluate_outputs(outputs, scene)
    return PipelineResult(outputs=outputs, report=report)


def score_predictions(
    lines: list[Polyline],
    scores: np.ndarray,
    adjacency: np.ndarray,
    pred_masks: np.ndarray | None,
    gt_masks: np.ndarray | None,
    scene: Scene,
) -> EvalReport:
    """DET_l, TOP_ll and AP_l of predictions against the scene's ground truth,
    at the protocol's fixed thresholds.

    The Frechet matrix is built once, exact up to the largest DET_l or TOP_ll
    threshold, and shared by DET_l and TOP_ll. Masks are (n, h, w) stacks of
    logits or booleans on one grid, ``gt_masks`` being the scene's
    :func:`render_gt_masks`; without ``pred_masks`` AP_l is 0.
    """
    gts = scene.centerlines
    dist = _frechet_matrix(lines, gts, max(*DET_THRESHOLDS, TOP_MATCH_THRESHOLD))
    det, det_per = det_l(lines, scores, gts, DET_THRESHOLDS, dist=dist)
    top = top_ll(lines, scores, adjacency, gts, scene.adjacency, TOP_MATCH_THRESHOLD, dist=dist)
    ap, ap_per = 0.0, {}
    if pred_masks is not None:
        ap, ap_per = mask_ap(pred_masks, scores, gt_masks, MASK_IOU_THRESHOLDS)
    return EvalReport(
        det_l=det, top_ll=top, ap_l=ap, det_per_threshold=det_per, ap_per_threshold=ap_per
    )


def evaluate_outputs(
    outputs: ModelOutputs, scene: Scene, gt_masks: np.ndarray | None = None
) -> EvalReport:
    """Score in-memory predictions against the scene's ground truth.

    ``gt_masks`` are the scene's masks on ``outputs.grid``; they are rendered
    here when the outputs carry masks and none are given.
    """
    preds = outputs.predictions
    if outputs.mask_logits is not None and gt_masks is None:
        gt_masks = render_gt_masks(scene, outputs.grid)
    return score_predictions(
        [p.points for p in preds],
        np.array([p.score for p in preds]),
        outputs.adjacency,
        outputs.mask_logits,
        gt_masks,
        scene,
    )


# --- prediction file format ---------------------------------------------------


def _masks_from_doc(doc: dict, n: int, grid: GridSpec) -> np.ndarray:
    """The (n, h, w) boolean masks of a predictions document on ``grid``.

    Inflation stops at the size of n packed masks, so a document cannot make
    the reader allocate more than the masks it claims.
    """
    masks = doc["masks"]
    if doc["grid"] != asdict(grid):
        raise ValueError(f"masks: the document's grid is not the configured {grid.h}x{grid.w} "
                         f"at {grid.resolution:g} m")
    if not isinstance(masks, dict):
        raise ValueError(f"masks must be an object, got {type(masks).__name__}")
    if masks["encoding"] != MASK_ENCODING:
        raise ValueError(f"masks.encoding must be {MASK_ENCODING!r}, got {masks['encoding']!r}")
    if not isinstance(masks["data"], str):
        raise ValueError(f"masks.data must be a string, got {type(masks['data']).__name__}")
    cells = n * grid.h * grid.w
    size = -(-cells // 8)
    inflate = zlib.decompressobj()
    try:
        packed = inflate.decompress(base64.b64decode(masks["data"], validate=True), max(size, 1))
    except (ValueError, zlib.error) as exc:
        raise ValueError(f"masks.data: {exc}") from None
    if len(packed) != size or not inflate.eof or inflate.unconsumed_tail or inflate.unused_data:
        raise ValueError(f"masks.data must inflate to exactly {size} bytes: {n} masks of "
                         f"{grid.h}x{grid.w} cells")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=cells)
    return bits.reshape(n, grid.h, grid.w).view(bool)


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
        "grid": asdict(outputs.grid),
    }
    if outputs.mask_logits is not None:
        bits = np.packbits(binarize_logits(outputs.mask_logits))
        data = base64.b64encode(zlib.compress(bits.tobytes(), MASK_ZLIB_LEVEL))
        doc["masks"] = {"encoding": MASK_ENCODING, "data": data.decode("ascii")}
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


def load_predictions(pred_path: str | Path, grid: GridSpec | None = None):
    """Lines, scores, ``is_real`` flags, adjacency and masks of a saved
    predictions document, validated.

    The masks are decoded on ``grid`` and checked against it, as one
    (n, h, w) bool array; they are None when the document has none or no
    grid is given. An unreadable path raises ``OSError``; a malformed
    document, or one of another schema version, raises one ``ValueError``
    naming the bad field or the missing key.
    """
    doc = json.loads(Path(pred_path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != "lanetopo-predictions":
        raise ValueError("not a recognized predictions document")
    version = doc.get("schema_version")
    if version != PREDICTIONS_SCHEMA_VERSION:
        raise ValueError(f"predictions schema_version must be {PREDICTIONS_SCHEMA_VERSION}, "
                         f"got {version!r}")
    try:
        entries = _objects(doc, "predictions")
        lines = [_polyline(p["points"], f"predictions[{i}]") for i, p in enumerate(entries)]
        is_real = [_flag(p["is_real"], f"predictions[{i}].is_real") for i, p in enumerate(entries)]
        n = len(lines)
        scores = _numeric_field([p["score"] for p in entries], "predictions[].score", (n,))
        adjacency = _numeric_field(doc["adjacency"], "adjacency", (n, n))
        pred_masks = None
        if grid is not None and "masks" in doc:
            pred_masks = _masks_from_doc(doc, n, grid)
    except KeyError as exc:
        raise ValueError(f"prediction document lacks key {exc.args[0]!r}") from None
    return lines, scores, np.array(is_real, dtype=bool), adjacency, pred_masks


def evaluate_prediction_file(
    pred_path: str | Path, scene: Scene, cfg: PipelineConfig
) -> EvalReport:
    """Score a saved prediction document against a scene; the document is
    read and validated by :func:`load_predictions` on the configured grid."""
    lines, scores, _, adjacency, pred_masks = load_predictions(pred_path, cfg.grid)
    gt_masks = None if pred_masks is None else render_gt_masks(scene, cfg.grid)
    return score_predictions(lines, scores, adjacency, pred_masks, gt_masks, scene)


# --- ablation harness -----------------------------------------------------------


def ablation_grid(
    scene: Scene, cfg: PipelineConfig, weights: ModelWeights
) -> list[dict]:
    """Run every {pgm, pmf, sd} combination on one scene.

    Valid combinations produce metric rows; the invalid fusion-without-masks
    combinations are reported with an error marker. The row layout mirrors a
    module-ablation table: one toggle triple plus the metric columns.

    The rows share stages: the BEV features, the SD interaction and the GT
    masks are computed once, and :func:`infer` runs once per ``(pgm, sd)``
    pair, since ``pmf`` changes only fusion. Fusion moves only the points, so
    a fused row takes AP_l from its unfused row. Each row equals its own
    :func:`run_pipeline` run exactly. Mask readouts are computed only by the
    fused rows, for their real instances: the pgm-off runs and the virtual
    rows read none.
    """
    check_weights(cfg, weights)
    rows: dict[tuple[bool, bool, bool], dict] = {}
    for pgm, pmf, sd in product((False, True), repeat=3):
        run_cfg = replace(cfg, pgm=pgm, pmf=pmf, sd=sd)
        row = rows[pgm, pmf, sd] = {"pgm": pgm, "pmf": pmf, "sd": sd}
        try:
            run_cfg.check_runnable()
        except ConfigError as exc:
            row["error"] = str(exc)

    bev = render_bev_features(scene, cfg)
    grids = {False: bev, True: sd_features(bev, scene, weights)}
    gt_masks = render_gt_masks(scene, cfg.grid)
    for pgm, sd in product((False, True), repeat=2):
        inferred = infer(grids[sd], replace(cfg, pgm=pgm), weights)
        for pmf in (False, True):
            row = rows[pgm, pmf, sd]
            if "error" in row:
                continue
            # a fused row is scored without masks: its AP_l is the unfused row's
            outputs = replace(fuse(inferred), mask_logits=None) if pmf else inferred
            report = evaluate_outputs(outputs, scene, gt_masks)
            if not pmf:
                ap_l = report.ap_l
            row.update(det_l=report.det_l, top_ll=report.top_ll, ap_l=ap_l)
    return list(rows.values())
