"""Matching and loss stack: elementary losses, Hungarian assignment,
instance matching, the composite objective, and gradient checks."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lanetopo.bev import sigmoid
from lanetopo.config import LossCoefficients
from lanetopo.decoder import CenterlinePrediction
from lanetopo.geometry import Polyline, resample_polyline
from lanetopo.losses import (
    Assignment,
    LossBreakdown,
    ModelOutputs,
    analytic_grad_check,
    bce_loss,
    dice_loss,
    focal_loss,
    hungarian,
    l1_loss,
    mask_point_targets,
    match_instances,
    random_grad_check_point,
    run_grad_checks,
    total_loss,
)
from lanetopo.pipeline import run_pipeline
from lanetopo.points_mask import AXIS_COLUMNS, AXIS_ROWS, MaskPointReadout
from lanetopo.scene import Scene, render_gt_masks, synth_scene
from lanetopo.bev import GridSpec
from lanetopo.config import PipelineConfig
from lanetopo.sdmap import SdMapInstance
from lanetopo.weights import init_model_weights


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive enumeration over all min(n, m)-sized assignments."""
    n, m = cost.shape
    best = np.inf
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = min(best, sum(cost[perm[j], j] for j in range(m)))
    return best


class TestFocal:
    def test_confident_correct_is_tiny(self):
        assert focal_loss(0.999999, 1.0) < 1e-10

    def test_half_probability_value(self):
        expected = 0.25 * 0.25 * math.log(2.0)
        assert float(focal_loss(0.5, 1.0)) == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_alpha_half_is_half_cross_entropy(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=20)
        half_ce = 0.5 * (-np.log(p))
        assert np.allclose(focal_loss(p, 1.0, alpha=0.5, gamma=0.0), half_ce, atol=1e-12)

    def test_clamps_degenerate_probabilities(self):
        assert np.isfinite(focal_loss(0.0, 1.0))
        assert np.isfinite(focal_loss(1.0, 0.0))

    def test_monotone_decreasing_in_matched_probability(self):
        p = np.linspace(0.05, 0.95, 50)
        vals = focal_loss(p, 1.0)
        assert np.all(np.diff(vals) < 0)


class TestDice:
    def test_identical_ones(self):
        ones = np.ones((3, 3))
        assert dice_loss(ones, ones) == pytest.approx(0.0)

    def test_zero_pred_full_gt_closed_form(self):
        n = 12
        pred = np.zeros(n)
        gt = np.ones(n)
        assert dice_loss(pred, gt) == pytest.approx(1.0 - 1.0 / (n + 1))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 1, size=(3, 3))
        gt = rng.integers(0, 2, size=(3, 3)).astype(float)
        num = 2 * (pred * gt).sum() + 1.0
        den = pred.sum() + gt.sum() + 1.0
        assert dice_loss(pred, gt) == pytest.approx(1.0 - num / den, abs=1e-12)


class TestElementwise:
    def test_l1_identity(self):
        x = np.arange(5.0)
        assert l1_loss(x, x) == 0.0

    def test_bce_half(self):
        assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
            math.log(2.0)
        )

    def test_random_vectors_match_direct_formulas(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.05, 0.95, size=10)
        b = rng.uniform(0.05, 0.95, size=10)
        t = rng.integers(0, 2, size=10).astype(float)
        assert l1_loss(a, b) == pytest.approx(np.mean(np.abs(a - b)), abs=1e-12)
        direct = np.mean(-(t * np.log(a) + (1 - t) * np.log(1 - a)))
        assert bce_loss(a, t) == pytest.approx(direct, abs=1e-12)


class TestHungarian:
    def test_simple_two_by_two(self):
        a = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert a.pairs == [(0, 0), (1, 1)]
        assert a.unmatched_predictions == []

    def test_diagonal_dominant(self):
        n = 5
        cost = np.ones((n, n)) * 9.0
        np.fill_diagonal(cost, 0.5)
        assert hungarian(cost).pairs == [(i, i) for i in range(n)]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for n in range(2, 7):
            for _ in range(20):
                cost = rng.uniform(0, 10, size=(n, n))
                a = hungarian(cost)
                total = sum(cost[i, j] for i, j in a.pairs)
                assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-9)

    def test_rectangular_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for shape in [(2, 5), (5, 2), (3, 4), (4, 3)]:
            for _ in range(10):
                cost = rng.uniform(0, 10, size=shape)
                a = hungarian(cost)
                assert len(a.pairs) == min(shape)
                total = sum(cost[i, j] for i, j in a.pairs)
                assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-9)

    def test_tie_break_is_lexicographic(self):
        assert hungarian(np.zeros((3, 3))).pairs == [(0, 0), (1, 1), (2, 2)]
        assert hungarian(np.array([[1.0, 1.0], [1.0, 1.0]])).pairs == [(0, 0), (1, 1)]
        assert hungarian(np.array([[1.0, 1.0, 5.0], [1.0, 1.0, 5.0]])).pairs == [(0, 0), (1, 1)]
        # two optimal corners: prefer the assignment containing (0, 0)
        cost = np.array([[2.0, 3.0], [3.0, 4.0]])  # (0,0)+(1,1)=6 == (0,1)+(1,0)=6
        assert hungarian(cost).pairs == [(0, 0), (1, 1)]

    def test_row_forced_unmatched(self):
        cost = np.array([[10.0, 10.0], [0.0, 10.0], [10.0, 0.0]])
        a = hungarian(cost)
        assert a.pairs == [(1, 0), (2, 1)]
        assert a.unmatched_predictions == [0]

    def test_empty_and_invalid(self):
        a = hungarian(np.zeros((0, 3)))
        assert a.pairs == [] and a.unmatched_predictions == []
        a = hungarian(np.zeros((2, 0)))
        assert a.pairs == [] and a.unmatched_predictions == [0, 1]
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_the_run_path_does_not_load_the_assignment_solver(self):
        """Importing the package and the pipeline leaves scipy.optimize
        unloaded in a fresh process; the first hungarian call loads it."""
        code = (
            "import sys; import numpy as np; import lanetopo, lanetopo.pipeline; "
            "before = 'scipy.optimize' in sys.modules; "
            "lanetopo.losses.hungarian(np.eye(2)); "
            "print(before, 'scipy.optimize' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.stdout == "False True\n", done.stderr


def make_pred(points: np.ndarray, score: float, is_real: bool = True) -> CenterlinePrediction:
    return CenterlinePrediction(
        points=Polyline(points), score=score, is_real=is_real, query=np.zeros(4)
    )


def straight_lane(y: float, x0=0.0, x1=20.0, n=201, z=0.0) -> Polyline:
    x = np.linspace(x0, x1, n)
    return Polyline(np.stack([x, np.full(n, y), np.full(n, z)], axis=-1))


class TestMatchInstances:
    def test_identity_when_predictions_equal_gt(self):
        gts = [straight_lane(2.0), straight_lane(-3.0)]
        preds = [
            make_pred(resample_polyline(g, 11).pts, 1.0) for g in gts
        ]
        a = match_instances(preds, gts, 1.5, 0.025)
        assert a.pairs == [(0, 0), (1, 1)]

    def test_closer_prediction_wins(self):
        gt = [straight_lane(0.0)]
        near = make_pred(resample_polyline(straight_lane(0.2), 11).pts, 0.9)
        far = make_pred(resample_polyline(straight_lane(5.0), 11).pts, 0.9)
        a = match_instances([near, far], gt, 1.5, 0.025)
        assert a.pairs == [(0, 0)]
        assert a.unmatched_predictions == [1]

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(5)
        gts = [straight_lane(y) for y in (-4.0, 0.0, 4.0)]
        preds = [
            make_pred(
                resample_polyline(straight_lane(rng.uniform(-6, 6)), 11).pts,
                float(rng.uniform(0.2, 0.9)),
            )
            for _ in range(4)
        ]
        lam_cls, lam_det = 1.5, 0.025
        cost = np.empty((4, 3))
        for i, p in enumerate(preds):
            for j, g in enumerate(gts):
                gk = resample_polyline(g, 11).pts
                cost[i, j] = lam_cls * float(focal_loss(p.score, 1.0)) + lam_det * np.mean(
                    np.abs(p.points.pts - gk)
                )
        a = match_instances(preds, gts, lam_cls, lam_det)
        total = sum(cost[i, j] for i, j in a.pairs)
        assert total == pytest.approx(brute_force_assignment_cost(cost), abs=1e-9)

    def test_empty_gt(self):
        preds = [make_pred(resample_polyline(straight_lane(0.0), 11).pts, 0.5)]
        a = match_instances(preds, [], 1.5, 0.025)
        assert a.pairs == [] and a.unmatched_predictions == [0]


def tiny_scene() -> Scene:
    lane0 = straight_lane(2.0, 0.0, 20.0)
    lane1 = straight_lane(-3.0, 0.0, 15.0)
    conn = straight_lane(2.0, 20.0, 25.0)  # virtual continuation of lane0
    adjacency = np.zeros((3, 3), dtype=np.int64)
    adjacency[0, 2] = 1
    return Scene(
        centerlines=[lane0, lane1, conn],
        is_real=[True, True, False],
        adjacency=adjacency,
        sd_instances=[SdMapInstance(straight_lane(0.0), 1)],
        seed=0,
    )


def grid_spec() -> GridSpec:
    return GridSpec(h=20, w=40, x_min=-5.0, y_min=-10.0, resolution=1.0)


def make_outputs(scene: Scene, k: int = 11, perfect: bool = True) -> ModelOutputs:
    grid = grid_spec()
    gt_masks = render_gt_masks(scene, grid)
    preds = []
    mask_logits = []
    col_readouts = []
    row_readouts = []
    order = [0, 1, 2]
    for g in order:
        gt_k = resample_polyline(scene.centerlines[g], k)
        pts = gt_k.pts if perfect else gt_k.pts + 0.3
        preds.append(make_pred(pts, 1.0 if perfect else 0.7, scene.is_real[g]))
        mask_logits.append(np.where(gt_masks[g] > 0, 15.0, -15.0))
        for axis, holder in ((AXIS_COLUMNS, col_readouts), (AXIS_ROWS, row_readouts)):
            coords_t, exist_t, dir_t = mask_point_targets(scene.centerlines[g], grid, axis)
            holder.append(
                MaskPointReadout(
                    axis=axis,
                    coords=coords_t,
                    existence=np.clip(exist_t, 1e-6, 1.0 - 1e-6),
                    direction=float(np.clip(dir_t, 1e-6, 1.0 - 1e-6)),
                )
            )
    adjacency = np.where(scene.adjacency > 0, 1.0 - 1e-6, 1e-6)
    return ModelOutputs(
        predictions=preds,
        adjacency=adjacency,
        grid=grid,
        mask_logits=np.stack(mask_logits),
        col_readouts=col_readouts,
        row_readouts=row_readouts,
    )


class TestTotalLoss:
    def test_perfect_predictions_drive_terms_down(self):
        scene = tiny_scene()
        outputs = make_outputs(scene, perfect=True)
        breakdown = total_loss(outputs, scene)
        assert breakdown.cls < 1e-3
        assert breakdown.det < 1e-3
        assert breakdown.mask < 1e-3
        assert breakdown.mp < 1e-3

    def test_bookkeeping_with_paper_coefficients(self):
        scene = tiny_scene()
        outputs = make_outputs(scene, perfect=False)
        coeffs = LossCoefficients(top=5.0, cls=1.5, det=0.025, mask=1.0, mp=7.0)
        breakdown = total_loss(outputs, scene, coeffs)
        recombined = (
            5.0 * breakdown.top
            + 1.5 * breakdown.cls
            + 0.025 * breakdown.det
            + 1.0 * breakdown.mask
            + 7.0 * breakdown.mp
        )
        assert abs(breakdown.total - recombined) < 1e-9
        assert all(
            v >= 0.0
            for v in (breakdown.top, breakdown.cls, breakdown.det, breakdown.mask, breakdown.mp)
        )

    def test_every_term_matches_independent_recomputation(self):
        scene = tiny_scene()
        k = 11
        outputs = make_outputs(scene, k=k, perfect=False)
        coeffs = LossCoefficients()
        breakdown = total_loss(outputs, scene, coeffs)

        # independent recomputation with explicit loops
        preds = outputs.predictions
        real_p = [i for i, p in enumerate(preds) if p.is_real]
        virt_p = [i for i, p in enumerate(preds) if not p.is_real]
        real_g = [g for g, r in enumerate(scene.is_real) if r]
        virt_g = [g for g, r in enumerate(scene.is_real) if not r]

        def best_assignment(p_idx, g_idx):
            best, best_pairs = np.inf, []
            for perm in itertools.permutations(g_idx, min(len(p_idx), len(g_idx))):
                for rows in itertools.permutations(p_idx, len(perm)):
                    tot = 0.0
                    for i, g in zip(rows, perm):
                        gk = resample_polyline(scene.centerlines[g], k).pts
                        tot += coeffs.cls * float(focal_loss(preds[i].score, 1.0))
                        tot += coeffs.det * np.mean(np.abs(preds[i].points.pts - gk))
                    if tot < best - 1e-12:
                        best, best_pairs = tot, list(zip(rows, perm))
            return dict(best_pairs)

        mapping = {**best_assignment(real_p, real_g), **best_assignment(virt_p, virt_g)}

        scores = np.array([p.score for p in preds])
        targets = np.array([1.0 if i in mapping else 0.0 for i in range(len(preds))])
        l_cls = float(np.mean(focal_loss(scores, targets)))
        assert breakdown.cls == pytest.approx(l_cls, abs=1e-9)

        det_terms = [
            np.mean(np.abs(preds[i].points.pts - resample_polyline(scene.centerlines[g], k).pts))
            for i, g in mapping.items()
        ]
        assert breakdown.det == pytest.approx(np.mean(det_terms), abs=1e-9)

        n = len(preds)
        tgt = np.zeros((n, n))
        for i, gi in mapping.items():
            for j, gj in mapping.items():
                tgt[i, j] = scene.adjacency[gi, gj]
        l_top = float(np.mean(focal_loss(outputs.adjacency, tgt)))
        assert breakdown.top == pytest.approx(l_top, abs=1e-9)

        gt_masks = render_gt_masks(scene, outputs.grid)
        mask_terms = []
        for i, g in mapping.items():
            probs = sigmoid(outputs.mask_logits[i])
            mask_terms.append(bce_loss(probs, gt_masks[g]) + dice_loss(probs, gt_masks[g]))
        assert breakdown.mask == pytest.approx(np.mean(mask_terms), abs=1e-9)

        mp_terms = []
        for i, g in mapping.items():
            term = 0.0
            for axis, readout in (
                (AXIS_COLUMNS, outputs.col_readouts[i]),
                (AXIS_ROWS, outputs.row_readouts[i]),
            ):
                coords_t, exist_t, dir_t = mask_point_targets(
                    scene.centerlines[g], outputs.grid, axis
                )
                covered = exist_t > 0
                if covered.any():
                    term += l1_loss(readout.coords[covered], coords_t[covered])
                term += bce_loss(readout.existence, exist_t)
                term += float(focal_loss(readout.direction, dir_t))
            mp_terms.append(term)
        assert breakdown.mp == pytest.approx(np.mean(mp_terms), abs=1e-9)

    def test_gt_permutation_invariance(self):
        scene = tiny_scene()
        outputs = make_outputs(scene, perfect=False)
        base = total_loss(outputs, scene)
        perm = [2, 0, 1]
        shuffled = Scene(
            centerlines=[scene.centerlines[p] for p in perm],
            is_real=[scene.is_real[p] for p in perm],
            adjacency=scene.adjacency[np.ix_(perm, perm)],
            sd_instances=scene.sd_instances,
            seed=scene.seed,
        )
        again = total_loss(outputs, shuffled)
        for field in ("top", "cls", "det", "mask", "mp", "total"):
            assert getattr(base, field) == pytest.approx(getattr(again, field), abs=1e-9)

    def test_assignment_validates_one_to_one(self):
        with pytest.raises(ValueError):
            Assignment(pairs=[(0, 0), (0, 1)], unmatched_predictions=[])
        with pytest.raises(ValueError):
            Assignment(pairs=[(0, 0), (1, 0)], unmatched_predictions=[])


def match_instances_per_row(preds, gts, lambda_cls, lambda_det) -> Assignment:
    """Reference matcher: the cost matrix filled one prediction row at a time."""
    if not gts:
        return Assignment(pairs=[], unmatched_predictions=list(range(len(preds))))
    if not preds:
        return Assignment(pairs=[], unmatched_predictions=[])
    k = len(preds[0].points)
    gt_pts = np.stack([resample_polyline(g, k).pts for g in gts])
    cost = np.empty((len(preds), len(gts)))
    for i, pred in enumerate(preds):
        cls_cost = float(focal_loss(pred.score, 1.0))
        det_cost = np.mean(np.abs(pred.points.pts[None] - gt_pts), axis=(1, 2))
        cost[i] = lambda_cls * cls_cost + lambda_det * det_cost
    return hungarian(cost)


def total_loss_per_pair(outputs, scene, coeffs) -> LossBreakdown:
    """Reference objective: the matching as a prediction -> ground truth dict,
    real pairs first, and every term a Python loop over its pairs."""
    preds = outputs.predictions
    n = len(preds)
    pred_to_gt = {}
    for real in (True, False):
        pred_idx = [i for i, p in enumerate(preds) if p.is_real == real]
        gt_idx = [g for g, flag in enumerate(scene.is_real) if flag == real]
        assignment = match_instances_per_row(
            [preds[i] for i in pred_idx], [scene.centerlines[g] for g in gt_idx],
            coeffs.cls, coeffs.det,
        )
        pred_to_gt.update({pred_idx[i]: gt_idx[j] for i, j in assignment.pairs})

    scores = np.array([p.score for p in preds])
    cls_targets = np.zeros(n)
    for i in pred_to_gt:
        cls_targets[i] = 1.0
    l_cls = float(np.mean(focal_loss(scores, cls_targets)))

    det_terms = []
    for i, g in pred_to_gt.items():
        gt_k = resample_polyline(scene.centerlines[g], len(preds[i].points))
        det_terms.append(l1_loss(preds[i].points.pts, gt_k.pts))
    l_det = float(np.mean(det_terms)) if det_terms else 0.0

    adj_target = np.zeros((n, n))
    for i, gi in pred_to_gt.items():
        for j, gj in pred_to_gt.items():
            adj_target[i, j] = scene.adjacency[gi, gj]
    l_top = float(np.mean(focal_loss(outputs.adjacency, adj_target)))

    l_mask = 0.0
    if outputs.mask_logits is not None and pred_to_gt:
        gt_masks = render_gt_masks(scene, outputs.grid)
        terms = []
        for i, g in pred_to_gt.items():
            probs = sigmoid(outputs.mask_logits[i])
            terms.append(bce_loss(probs, gt_masks[g]) + dice_loss(probs, gt_masks[g]))
        l_mask = float(np.mean(terms))

    l_mp = 0.0
    if outputs.col_readouts is not None and pred_to_gt:
        terms = []
        for i, g in pred_to_gt.items():
            term = 0.0
            for axis, readout in (
                (AXIS_COLUMNS, outputs.col_readouts[i]),
                (AXIS_ROWS, outputs.row_readouts[i]),
            ):
                coords_t, exist_t, dir_t = mask_point_targets(
                    scene.centerlines[g], outputs.grid, axis
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


@pytest.mark.parametrize("sd", [False, True], ids=["sd-off", "sd-on"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_total_loss_equals_the_per_pair_reference_on_pipeline_outputs(seed, sd):
    """Every field equals the per-pair loops bit for bit, on unfused and
    fused desk outputs."""
    cfg = PipelineConfig.desk(sd=sd, seed=seed)
    weights = init_model_weights(cfg, seed)
    scene = synth_scene(seed)
    for pmf in (False, True):
        run_cfg = PipelineConfig.desk(sd=sd, seed=seed, pmf=pmf)
        outputs = run_pipeline(scene, run_cfg, weights).outputs
        got = total_loss(outputs, scene, LossCoefficients())
        assert got == total_loss_per_pair(outputs, scene, LossCoefficients()), f"pmf={pmf}"


class TestGradChecks:
    @pytest.mark.parametrize("term", ["focal", "bce", "l1", "dice", "softargmax"])
    def test_analytic_matches_finite_differences(self, term):
        rng = np.random.default_rng(6)
        worst = max(
            analytic_grad_check(term, random_grad_check_point(term, rng)) for _ in range(10)
        )
        assert worst < 1e-4

    def test_run_grad_checks_covers_all_terms(self):
        errors = run_grad_checks(seed=1, n_points=3)
        assert set(errors) == {"focal", "bce", "l1", "dice", "softargmax"}
        assert max(errors.values()) < 1e-4

    def test_focal_through_logit_matches_finite_differences(self):
        # chain through the sigmoid: d focal(sigmoid(z)) / dz
        from lanetopo.bev import finite_diff_grad
        from lanetopo.losses import focal_grad

        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rng.normal(0.0, 2.0, size=5)
            y = rng.integers(0, 2, size=5).astype(float)
            f = lambda zz: float(np.sum(focal_loss(sigmoid(zz), y)))
            p = sigmoid(z)
            analytic = focal_grad(p, y) * p * (1.0 - p)
            numeric = finite_diff_grad(f, z, eps=1e-6)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-4

    def test_bce_monotone_decreasing_in_matched_probability(self):
        p = np.linspace(0.05, 0.95, 50)
        vals = [bce_loss(np.array([x]), np.array([1.0])) for x in p]
        assert np.all(np.diff(vals) < 0)
