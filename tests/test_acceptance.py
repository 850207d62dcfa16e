"""Acceptance suite: one test per gating criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from lanetopo.bev import BevGrid, GridSpec, LayerNormWeights, layer_norm, softmax
from lanetopo.config import LossCoefficients, PipelineConfig
from lanetopo.decoder import masked_cross_attention, rvs_self_attention
from lanetopo.geometry import (
    Polyline,
    discrete_frechet,
    filter_outliers,
    resample_polyline,
)
from lanetopo.losses import (
    GRAD_CHECK_TERMS,
    analytic_grad_check,
    hungarian,
    random_grad_check_point,
    total_loss,
)
from lanetopo.metrics import det_l, mask_ap, top_ll
from lanetopo.pipeline import ablation_grid, dump_predictions_json, run_pipeline
from lanetopo.points_mask import AXIS_COLUMNS, MaskPointReadout, fuse_points, sample_mask_points
from lanetopo.scene import SceneParams, render_gt_masks, synth_scene
from lanetopo.weights import init_model_weights

from test_geometry import frechet_by_coupling_enumeration
from test_losses import brute_force_assignment_cost, make_outputs, tiny_scene


def report(name: str, ok: bool = True) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def test_soft_argmax_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 8
    rows = np.arange(h, dtype=np.float64)
    for _ in range(1000):
        logits = rng.normal(0.0, 3.0, size=(h, 1))
        coord = sample_mask_points(logits, AXIS_COLUMNS)[0]
        oracle = float(rows @ softmax(logits[:, 0]))
        assert abs(coord - oracle) < 1e-9
    uniform = sample_mask_points(np.zeros((h, 3)), AXIS_COLUMNS)
    assert np.array_equal(uniform, np.full(3, (h - 1) / 2.0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("soft-argmax oracle (1000 columns, exact uniform center, <1s)")


def test_rvs_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        qr = rng.normal(size=(4, 8))
        qv = rng.normal(size=(4, 8))
        base_r, _ = rvs_self_attention(qr, qv)
        # real rows put zero mass on virtual ones and their weights sum to 1
        assert np.array_equal(base_r, rvs_self_attention(qr, qv[:0])[0])
        plain = qr + softmax(qr @ qr.T / np.sqrt(8), axis=-1) @ qr
        assert np.max(np.abs(base_r - plain)) < 1e-9
        out_r2, _ = rvs_self_attention(qr, rng.normal(size=(4, 8)) * 10.0)
        assert np.array_equal(out_r2, base_r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("real/virtual separated self-attention structure (<1s)")


def test_masked_attention_degeneration():
    rng = np.random.default_rng(102)
    for _ in range(100):
        h, w, c = (int(x) for x in rng.integers(2, 5, size=3))
        c = 4 * c
        spec = GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)
        grid = BevGrid(rng.normal(size=(h, w, c)), spec)
        q = rng.normal(size=(3, c))
        ln = LayerNormWeights(rng.uniform(0.5, 1.5, c), rng.normal(size=c))
        masked = layer_norm(masked_cross_attention(q, grid, np.ones((3, h * w), dtype=bool)), ln)
        cells = grid.flat()
        plain = layer_norm(q + softmax(q @ cells.T, axis=-1) @ cells, ln)
        assert np.max(np.abs(masked - plain)) < 1e-9
    report("masked cross-attention degenerates to plain attention at an all-True mask")


def test_hungarian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for n in range(2, 7):
        for _ in range(100):
            cost = rng.uniform(0, 10, size=(n, n))
            a = hungarian(cost)
            total = sum(cost[i, j] for i, j in a.pairs)
            assert abs(total - brute_force_assignment_cost(cost)) < 1e-9
    # deterministic tie-breaks on crafted tie matrices
    assert hungarian(np.zeros((4, 4))).pairs == [(i, i) for i in range(4)]
    assert hungarian(np.ones((2, 3))).pairs == [(0, 0), (1, 1)]
    assert hungarian(np.array([[2.0, 3.0], [3.0, 4.0]])).pairs == [(0, 0), (1, 1)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("hungarian equals exhaustive enumeration, deterministic ties (<5s)")


def test_frechet_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(200):
        na, nb = rng.integers(2, 7, size=2)
        a = rng.normal(size=(na, 3))
        b = rng.normal(size=(nb, 3))
        dp = discrete_frechet(Polyline(a), Polyline(b))
        assert dp == frechet_by_coupling_enumeration(a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("frechet DP equals exhaustive coupling enumeration, exact (<5s)")


def test_gradient_checks():
    rng = np.random.default_rng(105)
    worst = {}
    for term in GRAD_CHECK_TERMS:
        worst[term] = max(
            analytic_grad_check(term, random_grad_check_point(term, rng)) for _ in range(50)
        )
        assert worst[term] < 1e-4, f"{term}: {worst[term]:.2e}"
    report(
        "analytic gradients vs central differences "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    )


def test_fusion_recovery_on_arc_scenes():
    rng = np.random.default_rng(106)
    grid = PipelineConfig().grid
    k = 11
    refined_errors = []
    for scene_idx in range(20):
        radius = float(rng.uniform(20.0, 60.0))
        half_chord = min(14.0, 0.7 * radius)
        y_mid = float(rng.uniform(-8.0, 8.0))
        reverse = scene_idx % 2 == 1

        def arc_y(x):
            return y_mid - radius + np.sqrt(radius**2 - x**2)

        xs_cols = grid.x_min + (np.arange(grid.w) + 0.5) * grid.resolution
        logits = np.zeros((grid.h, grid.w))
        exist = np.full(grid.w, 0.01)
        rows = np.arange(grid.h, dtype=np.float64)
        for j, x in enumerate(xs_cols):
            if abs(x) <= half_chord:
                row_gt = grid.metric_to_cell(np.array([[x, arc_y(x)]]))[0, 0]
                logits[:, j] = -3.0 * (rows - row_gt) ** 2
                exist[j] = 0.99
        coords = sample_mask_points(logits, AXIS_COLUMNS)
        readout = MaskPointReadout(
            axis=AXIS_COLUMNS,
            coords=coords,
            existence=exist,
            direction=0.05 if reverse else 0.95,
        )

        x_gt = np.linspace(-half_chord, half_chord, 201)
        if reverse:
            x_gt = x_gt[::-1]
        gt = Polyline(np.stack([x_gt, arc_y(x_gt), np.zeros_like(x_gt)], axis=-1))
        gt_k = resample_polyline(gt, k)
        bias = 0.8 * np.sin(np.pi * np.linspace(0.0, 1.0, k))
        detected = Polyline(gt_k.pts + np.stack([np.zeros(k), bias, np.zeros(k)], axis=-1))

        refined = fuse_points(detected, readout, grid, k)
        err_det = float(np.mean(np.linalg.norm(detected.pts[:, :2] - gt_k.pts[:, :2], axis=1)))
        err_ref = float(np.mean(np.linalg.norm(refined.pts[:, :2] - gt_k.pts[:, :2], axis=1)))
        assert err_ref < err_det, f"scene {scene_idx}: {err_ref:.3f} !< {err_det:.3f}"
        refined_errors.append(err_ref)
    mean_err = float(np.mean(refined_errors))
    assert mean_err < 0.5, f"mean refined error {mean_err:.3f}"
    report(f"fusion recovery on 20 arc scenes (mean refined error {mean_err:.3f} m)")


def test_outlier_rule_thresholds():
    # middle point 2.0 m from both ordered neighbors: removed at 1.5 m
    pts = np.array([[0, 0], [1, 0], [3, 0], [5, 0], [6, 0]], dtype=float)
    keep = filter_outliers(pts, 1.5)
    assert list(keep) == [True, True, False, True, True]
    # 1.4 m from both neighbors: retained
    pts = np.array([[0, 0], [1, 0], [2.4, 0], [3.8, 0], [4.8, 0]], dtype=float)
    keep = filter_outliers(pts, 1.5)
    assert keep.all()
    report("outlier rule removes at 2.0 m and retains at 1.4 m (threshold 1.5 m)")


def test_metric_identities():
    scene = synth_scene(200, SceneParams(intersections=1))
    gt_masks = render_gt_masks(scene, PipelineConfig.desk().grid)
    scores = np.ones(scene.n_lanes)
    det, det_per = det_l(scene.centerlines, scores, scene.centerlines)
    assert det == 1.0 and all(v == 1.0 for v in det_per.values())
    top = top_ll(
        scene.centerlines, scores, scene.adjacency.astype(float), scene.centerlines,
        scene.adjacency,
    )
    assert top == 1.0
    ap, _ = mask_ap([m * 30 - 15 for m in gt_masks], scores, list(gt_masks))
    assert ap == 1.0
    # empty predictions against nonempty ground truth
    det0, _ = det_l([], np.zeros(0), scene.centerlines)
    top0 = top_ll([], np.zeros(0), np.zeros((0, 0)), scene.centerlines, scene.adjacency)
    ap0, _ = mask_ap([], np.zeros(0), list(gt_masks))
    assert det0 == 0.0 and top0 == 0.0 and ap0 == 0.0
    report("metric identities: exact predictions score 1.0, empty score 0.0")


def test_loss_bookkeeping():
    scene = tiny_scene()
    coeffs = LossCoefficients(top=5.0, cls=1.5, det=0.025, mask=1.0, mp=7.0)
    outputs = make_outputs(scene, perfect=False)
    breakdown = total_loss(outputs, scene, coeffs)
    recombined = (
        5.0 * breakdown.top
        + 1.5 * breakdown.cls
        + 0.025 * breakdown.det
        + 1.0 * breakdown.mask
        + 7.0 * breakdown.mp
    )
    assert abs(breakdown.total - recombined) < 1e-9
    perfect = total_loss(make_outputs(scene, perfect=True), scene, coeffs)
    assert perfect.cls < 1e-3 and perfect.det < 1e-3
    assert perfect.mask < 1e-3 and perfect.mp < 1e-3
    report("loss bookkeeping at coefficients (5, 1.5, 0.025, 1, 7); perfect scene near zero")


def test_ablation_harness():
    t0 = time.perf_counter()
    cfg = PipelineConfig.desk(seed=2)
    scene = synth_scene(201)
    weights = init_model_weights(cfg)
    rows = ablation_grid(scene, cfg, weights)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 8
    invalid = [r for r in rows if "error" in r]
    assert len(invalid) == 2
    assert all(r["pmf"] and not r["pgm"] for r in invalid)
    for row in rows:
        assert {"pgm", "pmf", "sd"} <= set(row)
        if "error" not in row:
            assert np.isfinite([row["det_l"], row["top_ll"], row["ap_l"]]).all()
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(f"ablation harness: 8 toggle rows in {elapsed:.1f}s (<30s)")


def test_run_determinism():
    cfg = PipelineConfig.desk(seed=6)
    scene = synth_scene(202)
    weights = init_model_weights(cfg)
    a = dump_predictions_json(run_pipeline(scene, cfg, weights).outputs)
    b = dump_predictions_json(run_pipeline(scene, cfg, weights).outputs)
    assert a == b
    report("byte-identical prediction JSON across repeated runs")
