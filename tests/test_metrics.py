"""Detection mAP, connectivity AP, mask AP, and their conventions."""

import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanetopo import metrics, pipeline
from lanetopo.bev import binarize_logits
from lanetopo.config import PipelineConfig
from lanetopo.geometry import Polyline, frechet_matrix, resample_polyline
from lanetopo.metrics import (
    FRECHET_EVAL_POINTS,
    _frechet_matrix,
    _greedy_match,
    _rank_by_score,
    _resampled_ends,
    average_precision,
    det_l,
    mask_ap,
    mask_iou,
    mask_iou_matrix,
    top_ll,
)
from lanetopo.pipeline import evaluate_outputs, run_pipeline
from lanetopo.scene import synth_scene
from lanetopo.weights import init_model_weights
from make_golden import COMBOS, SEEDS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def lane(y: float, x0=0.0, x1=20.0, n=21) -> Polyline:
    x = np.linspace(x0, x1, n)
    return Polyline(np.stack([x, np.full(n, y), np.zeros(n)], axis=-1))


def reference_frechet_matrix(preds, gts, n_eval=FRECHET_EVAL_POINTS):
    """The unpruned matrix: every line resampled, every pair coupled."""

    def stack(lines):
        return np.array([resample_polyline(p, n_eval).pts for p in lines]).reshape(-1, n_eval, 3)

    return frechet_matrix(stack(preds), stack(gts))


def endpoint_gaps(preds, gts):
    """The larger endpoint gap of every pair, on the resamplings the DP sees."""
    ends = [
        np.array([resample_polyline(p, FRECHET_EVAL_POINTS).pts[[0, -1]] for p in lines])
        .reshape(-1, 2, 3)
        for lines in (preds, gts)
    ]
    return np.linalg.norm(ends[0][:, None] - ends[1][None], axis=-1).max(axis=-1)


def assert_pruned_matrix(preds, gts, bound):
    """Exact where the endpoint gap is within ``bound``; elsewhere exact or
    +inf, and +inf only where the exact value is above ``bound``."""
    got = _frechet_matrix(preds, gts, bound)
    ref = reference_frechet_matrix(preds, gts)
    assert got.shape == ref.shape == (len(preds), len(gts))
    kept = endpoint_gaps(preds, gts) <= bound
    assert np.array_equal(got[kept], ref[kept])
    differ = got != ref
    assert np.all(np.isposinf(got[differ]))
    assert np.all(ref[differ] > bound)
    return got, ref


# coordinates on a 0.5 m lattice, so endpoint gaps often equal the bound
coord = st.integers(-6, 6).map(lambda v: v * 0.5)
point = st.tuples(coord, coord, st.sampled_from([0.0, 0.5]))


@st.composite
def polyline(draw):
    pts = draw(st.lists(point, min_size=2, max_size=6))
    if draw(st.integers(0, 5)) == 0:
        pts = [pts[0]] * len(pts)  # zero length
    return Polyline(np.array(pts, dtype=np.float64))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    preds=st.lists(polyline(), max_size=4),
    gts=st.lists(polyline(), max_size=4),
    bound=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 6.0),
)
def test_pruned_matrix_is_exact_within_the_bound(preds, gts, bound):
    assert_pruned_matrix(preds, gts, bound)


class TestPrunedFrechetMatrix:
    def test_pair_at_exactly_the_bound_is_kept_and_matches(self):
        # endpoint gap = Frechet distance = bound = 3 m
        gts, preds = [lane(0.0)], [lane(3.0)]
        got, _ = assert_pruned_matrix(preds, gts, 3.0)
        assert got[0, 0] == 3.0
        _, per = det_l(preds, np.ones(1), gts)
        assert per == {"1": 0.0, "2": 0.0, "3": 1.0}

    def test_u_turn_within_the_endpoint_bound_is_exact_and_unmatched(self):
        gts = [lane(0.0)]
        u = Polyline(np.array([[0.0, 1.0, 0.0], [0.0, 10.0, 0.0], [20.0, 10.0, 0.0],
                               [20.0, 1.0, 0.0]]))
        assert endpoint_gaps([u], gts)[0, 0] == 1.0
        got, _ = assert_pruned_matrix([u], gts, 3.0)
        assert 3.0 < got[0, 0] < np.inf
        score, _ = det_l([u], np.ones(1), gts)
        assert score == 0.0

    def test_zero_length_line(self):
        dot = Polyline(np.array([[5.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        short = Polyline(np.array([[4.0, 0.0, 0.0], [6.0, 0.0, 0.0]]))
        got, _ = assert_pruned_matrix([dot], [short, lane(0.0)], 1.0)
        assert got[0, 0] == 1.0 and got[0, 1] == np.inf

    def test_ends_are_the_resampled_ends(self):
        # segment norms that underflow to 0: the resampling repeats the first
        # point, so its last point is not the line's own
        tiny = Polyline(np.array([[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [0.0, 1e-300, 0.0]]))
        dot = Polyline(np.array([[5.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        short = Polyline(np.array([[4.0, 0.0, 0.0], [6.0, 0.0, 0.0]]))
        for lines in ([tiny], [tiny, lane(1.0), dot, short, tiny], [lane(1.0), dot, tiny]):
            want = [resample_polyline(p, FRECHET_EVAL_POINTS).pts[[0, -1]] for p in lines]
            assert np.array_equal(_resampled_ends(lines), np.array(want))
        assert np.array_equal(_resampled_ends([tiny])[0, 1], [0.0, 0.0, 0.0])
        assert _resampled_ends([]).shape == (0, 2, 3)

    def test_no_predictions_or_no_ground_truth(self):
        assert _frechet_matrix([], [lane(0.0)], 3.0).shape == (0, 1)
        assert _frechet_matrix([lane(0.0), lane(1.0)], [], 3.0).shape == (2, 0)
        assert _frechet_matrix([], [], 3.0).shape == (0, 0)

    def test_only_lines_of_kept_pairs_are_resampled(self, monkeypatch):
        resampled = []
        real = metrics.resample_polyline

        def counting(p, k):
            resampled.append(p)
            return real(p, k)

        monkeypatch.setattr(metrics, "resample_polyline", counting)
        preds = [lane(0.5), lane(50.0), lane(60.0)]
        gts = [lane(0.0), lane(-40.0)]
        got = _frechet_matrix(preds, gts, 3.0)
        assert [id(p) for p in resampled] == [id(preds[0]), id(gts[0])]
        assert got[0, 0] == 0.5 and np.isposinf(got).sum() == 5

        resampled.clear()
        assert np.isposinf(_frechet_matrix(preds[1:], gts, 3.0)).all()
        assert resampled == []


@cache
def golden_runs(seed):
    """(run_pipeline result, scene, cfg) of every golden combination at ``seed``."""
    runs = []
    for pgm, pmf, sd in COMBOS:
        cfg = PipelineConfig.desk(seed=seed, pgm=pgm, pmf=pmf, sd=sd)
        scene = synth_scene(seed)
        runs.append((run_pipeline(scene, cfg, init_model_weights(cfg)), scene, cfg))
    return runs


@cache
def near_cases():
    """(outputs, scene, cfg) of the eval-near documents of seeds 0-10."""
    cfg = PipelineConfig()
    cases = []
    for seed in range(11):
        for slot, shape in enumerate(workloads.SHAPES):
            scene = workloads.make_scene(seed, "eval-near", 0, slot, shape)
            rng = np.random.default_rng(workloads.input_seed(seed, "eval-near", 0, slot, 1))
            cases.append((workloads.near_document(scene, cfg.grid, rng), scene, cfg))
    return cases


class TestScoringEqualsTheUnprunedMatrix:
    """score_predictions' reports equal the ones scored on the full matrix."""

    @staticmethod
    def reference_report(monkeypatch, outputs, scene, cfg):
        with monkeypatch.context() as m:
            m.setattr(pipeline, "_frechet_matrix",
                      lambda preds, gts, bound: reference_frechet_matrix(preds, gts))
            return evaluate_outputs(outputs, scene, cfg)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_scenes(self, monkeypatch, seed):
        for result, scene, cfg in golden_runs(seed):
            assert result.report == self.reference_report(monkeypatch, result.outputs, scene, cfg)

    def test_near_documents(self, monkeypatch):
        finite = pruned = 0
        for outputs, scene, cfg in near_cases():
            report = evaluate_outputs(outputs, scene, cfg)
            assert report == self.reference_report(monkeypatch, outputs, scene, cfg)
            dist = _frechet_matrix([p.points for p in outputs.predictions],
                                   scene.centerlines, 3.0)
            finite += int(np.isfinite(dist).sum())
            pruned += int(np.isposinf(dist).sum())
        # both kinds of entry are exercised
        assert finite > 0 and pruned > 0


# --- reference scoring: one greedy loop per orientation over every rank, a
# pair loop for the candidate edges, a rank loop for AP and per-mask IoU ----


def reference_average_precision(tp_flags, n_gt):
    if n_gt == 0:
        return 1.0 if len(tp_flags) == 0 else 0.0
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for level in range(len(tp_flags)):
        r = recall[level]
        if r > prev_r:
            ap += (r - prev_r) * float(envelope[level])
            prev_r = r
    return float(ap)


def reference_greedy_match(order, dist, threshold, larger_is_better=False):
    taken = np.zeros(dist.shape[1], dtype=bool)
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


def reference_ap_over(matrix, scores, n_pred, n_gt, thresholds, larger_is_better=False):
    thresholds = tuple(sorted(thresholds))
    if n_pred == 0 or n_gt == 0:
        value = 1.0 if n_pred == n_gt == 0 else 0.0
        return value, {f"{t:g}": value for t in thresholds}
    order = _rank_by_score(scores)
    per = {}
    for t in thresholds:
        matched = reference_greedy_match(order, matrix(), t, larger_is_better)
        per[f"{t:g}"] = reference_average_precision([j >= 0 for j in matched], n_gt)
    return float(np.mean(list(per.values()))), per


def reference_det_l(preds, scores, gts, thresholds=(1.0, 2.0, 3.0), *, dist=None):
    return reference_ap_over(
        lambda: reference_frechet_matrix(preds, gts) if dist is None else dist,
        scores, len(preds), len(gts), thresholds,
    )


def reference_top_ll(pred_lines, pred_scores, pred_adj, gt_lines, gt_adj, match_threshold=1.0,
                     *, dist=None):
    gt_adj = np.asarray(gt_adj)
    n_gt = len(gt_lines)
    n_edges = int(gt_adj.sum())
    gt_to_pred = {}
    if pred_lines and gt_lines:
        if dist is None:
            dist = reference_frechet_matrix(pred_lines, gt_lines)
        order = _rank_by_score(pred_scores)
        matched = reference_greedy_match(order, dist, match_threshold)
        gt_to_pred = {j: int(i) for i, j in zip(order, matched) if j >= 0}
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
    return reference_average_precision([is_edge for _, _, _, is_edge in cand], n_edges)


def reference_mask_ap(pred_masks, scores, gt_masks, iou_thresholds=(0.5, 0.75)):
    def iou():
        preds = [m if np.asarray(m).dtype == bool else binarize_logits(m) for m in pred_masks]
        return np.array([[mask_iou(p, g) for g in gt_masks] for p in preds])

    return reference_ap_over(
        iou, scores, len(pred_masks), len(gt_masks), iou_thresholds, larger_is_better=True
    )


class TestScoringEqualsTheReferenceMatcher:
    """One greedy matcher on stacked masks scores exactly as the references."""

    @staticmethod
    def reference_report(monkeypatch, outputs, scene, cfg):
        with monkeypatch.context() as m:
            m.setattr(pipeline, "det_l", reference_det_l)
            m.setattr(pipeline, "top_ll", reference_top_ll)
            m.setattr(pipeline, "mask_ap", reference_mask_ap)
            return evaluate_outputs(outputs, scene, cfg)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_scenes(self, monkeypatch, seed):
        for result, scene, cfg in golden_runs(seed):
            assert result.report == self.reference_report(monkeypatch, result.outputs, scene, cfg)

    def test_near_documents(self, monkeypatch):
        hits = 0
        for outputs, scene, cfg in near_cases():
            report = evaluate_outputs(outputs, scene, cfg)
            assert report == self.reference_report(monkeypatch, outputs, scene, cfg)
            hits += report.det_l > 0 and report.top_ll > 0 and report.ap_l > 0
        # the documents score above 0 on every metric, so matches are exercised
        assert hits > 0

    def test_mask_ap_on_a_list_a_float_stack_and_a_bool_stack(self):
        outputs, scene, cfg = near_cases()[3]
        logits = outputs.mask_logits.copy()
        logits[:, 0, :3] = (-1e-17, -0.0, -1e-9)  # sigmoid 0.5, 0.5 and below
        scores = np.array([p.score for p in outputs.predictions])
        gt = pipeline.render_gt_masks(scene, cfg.grid)
        want = reference_mask_ap(list(logits), scores, list(gt))
        assert want[0] > 0
        want_iou = [[mask_iou(p, g) for g in gt] for p in binarize_logits(logits)]
        for pred in (list(logits), logits, binarize_logits(logits), list(binarize_logits(logits))):
            assert np.array_equal(mask_iou_matrix(pred, gt), want_iou)
            assert mask_ap(pred, scores, gt) == want
            assert mask_ap(pred, scores, list(gt)) == want


cost_value = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, np.inf, -np.inf])


@st.composite
def scored_matrix(draw):
    """A small cost matrix with tied and infinite entries, tied scores, and
    an adjacency with tied probabilities."""
    p, g = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cost = draw(st.lists(cost_value, min_size=p * g, max_size=p * g))
    scores = draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=p, max_size=p))
    adj = draw(st.lists(st.sampled_from([0.0, 0.5, 0.6, 0.9, 1.0]), min_size=p * p,
                        max_size=p * p))
    gt_adj = draw(st.lists(st.integers(0, 1), min_size=g * g, max_size=g * g))
    return (np.reshape(cost, (p, g)), np.array(scores), np.reshape(adj, (p, p)),
            np.reshape(gt_adj, (g, g)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=scored_matrix(), threshold=st.sampled_from([0.0, 0.25, 1.0, 1.5]))
def test_matcher_equals_the_reference_in_both_orientations(case, threshold):
    cost, scores, adj, gt_adj = case
    order = _rank_by_score(scores)
    got = _greedy_match(order, cost, threshold)
    assert got.tolist() == reference_greedy_match(order, cost, threshold)
    larger = reference_greedy_match(order, cost, threshold, larger_is_better=True)
    assert _greedy_match(order, -cost, -threshold).tolist() == larger

    preds, gts = [lane(0.0)] * len(cost), [lane(0.0)] * len(gt_adj)
    args = (preds, scores, adj, gts, gt_adj, threshold)
    assert top_ll(*args, dist=cost) == reference_top_ll(*args, dist=cost)
    thresholds = (threshold, 0.5, 2.0)
    assert det_l(preds, scores, gts, thresholds, dist=cost) == reference_det_l(
        preds, scores, gts, thresholds, dist=cost)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=40), n_gt=st.integers(0, 40))
def test_average_precision_equals_the_reference(flags, n_gt):
    want = reference_average_precision(flags, n_gt)
    assert average_precision(flags, n_gt) == want
    assert average_precision(np.array(flags, dtype=bool), n_gt) == want


class TestAveragePrecision:
    def test_hand_enumerated_curve(self):
        # ranked flags TP, FP, TP with 2 ground truths:
        # precision 1, 1/2, 2/3 at recall 1/2, 1/2, 1;
        # envelope integral = 0.5 * 1 + 0.5 * (2/3) = 5/6
        assert average_precision([True, False, True], 2) == pytest.approx(5.0 / 6.0)

    def test_empty_conventions(self):
        assert average_precision([], 0) == 1.0
        assert average_precision([], 3) == 0.0
        assert average_precision([False, False], 0) == 0.0

    def test_all_hits(self):
        assert average_precision([True, True], 2) == 1.0

    def test_trailing_false_positives_do_not_hurt(self):
        assert average_precision([True, True, False, False], 2) == 1.0


class TestDetL:
    def test_identity_predictions(self):
        gts = [lane(0.0), lane(4.0), lane(-4.0)]
        score, per = det_l(gts, np.ones(3), gts)
        assert score == 1.0
        assert all(v == 1.0 for v in per.values())

    def test_all_far_predictions(self):
        gts = [lane(0.0)]
        preds = [lane(10.0)]
        score, per = det_l(preds, np.ones(1), gts)
        assert score == 0.0
        assert all(v == 0.0 for v in per.values())

    def test_hand_enumerated_small_case(self):
        # 2 ground truths; three predictions ranked by score:
        #   0.9 -> on gt0 (TP), 0.8 -> 10 m away (FP), 0.7 -> on gt1 (TP)
        gts = [lane(0.0), lane(5.0)]
        preds = [lane(0.0), lane(-10.0), lane(5.0)]
        scores = np.array([0.9, 0.8, 0.7])
        score, per = det_l(preds, scores, gts, thresholds=(1.0,))
        assert per["1"] == pytest.approx(5.0 / 6.0)
        assert score == pytest.approx(5.0 / 6.0)

    def test_empty_set_conventions(self):
        one, _ = det_l([], np.zeros(0), [])
        assert one == 1.0
        zero, _ = det_l([], np.zeros(0), [lane(0.0)])
        assert zero == 0.0
        zero2, _ = det_l([lane(0.0)], np.ones(1), [])
        assert zero2 == 0.0

    def test_score_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        gts = [lane(0.0), lane(4.0)]
        preds = [lane(0.3), lane(7.0), lane(4.2)]
        scores = rng.uniform(0.2, 0.9, size=3)
        a, _ = det_l(preds, scores, gts)
        b, _ = det_l(preds, scores * 0.37, gts)
        assert a == b

    def test_duplicate_lower_scored_prediction_never_raises_ap(self):
        gts = [lane(0.0), lane(4.0)]
        preds = [lane(0.0), lane(4.1)]
        scores = np.array([0.9, 0.8])
        base, _ = det_l(preds, scores, gts)
        dup_preds = preds + [lane(0.0)]
        dup_scores = np.array([0.9, 0.8, 0.5])
        dup, _ = det_l(dup_preds, dup_scores, gts)
        assert dup <= base + 1e-12


class TestTopLl:
    def _y_junction(self):
        stem = lane(0.0, -20.0, 0.0)
        up = Polyline(
            np.stack(
                [np.linspace(0, 20, 21), np.linspace(0, 6, 21), np.zeros(21)], axis=-1
            )
        )
        down = Polyline(
            np.stack(
                [np.linspace(0, 20, 21), np.linspace(0, -6, 21), np.zeros(21)], axis=-1
            )
        )
        gt_adj = np.zeros((3, 3), dtype=int)
        gt_adj[0, 1] = 1
        gt_adj[0, 2] = 1
        return [stem, up, down], gt_adj

    def test_perfect_adjacency(self):
        lines, gt_adj = self._y_junction()
        pred_adj = gt_adj.astype(float)
        assert top_ll(lines, np.ones(3), pred_adj, lines, gt_adj) == 1.0

    def test_all_zero_adjacency(self):
        lines, gt_adj = self._y_junction()
        assert top_ll(lines, np.ones(3), np.zeros((3, 3)), lines, gt_adj) == 0.0

    def test_wrong_edge_ranked_last_keeps_full_ap(self):
        lines, gt_adj = self._y_junction()
        pred_adj = np.zeros((3, 3))
        pred_adj[0, 1] = 0.9  # true edge
        pred_adj[0, 2] = 0.8  # true edge
        pred_adj[1, 2] = 0.7  # wrong edge, ranked after both true ones
        assert top_ll(lines, np.ones(3), pred_adj, lines, gt_adj) == pytest.approx(1.0)

    def test_wrong_edge_ranked_between_hand_value(self):
        lines, gt_adj = self._y_junction()
        pred_adj = np.zeros((3, 3))
        pred_adj[0, 1] = 0.9  # true
        pred_adj[1, 2] = 0.8  # wrong, between the two true edges
        pred_adj[0, 2] = 0.7  # true
        # flags T, F, T with 2 edges -> AP = 0.5 + 0.5 * (2/3) = 5/6
        assert top_ll(lines, np.ones(3), pred_adj, lines, gt_adj) == pytest.approx(5.0 / 6.0)

    def test_unmatched_endpoint_edges_are_missed(self):
        lines, gt_adj = self._y_junction()
        # drop the "down" branch prediction entirely
        preds = lines[:2]
        pred_adj = np.zeros((2, 2))
        pred_adj[0, 1] = 1.0
        score = top_ll(preds, np.ones(2), pred_adj, lines, gt_adj)
        # one of two edges reachable -> AP = 0.5
        assert score == pytest.approx(0.5)

    def test_no_gt_edge_conventions(self):
        lines, _ = self._y_junction()
        zero_adj = np.zeros((3, 3), dtype=int)
        assert top_ll(lines, np.ones(3), np.zeros((3, 3)), lines, zero_adj) == 1.0
        spurious = np.zeros((3, 3))
        spurious[1, 0] = 0.9
        assert top_ll(lines, np.ones(3), spurious, lines, zero_adj) == 0.0


class TestMaskAp:
    def _mask(self, cells, h=8, w=8):
        m = np.zeros((h, w), dtype=bool)
        for r, c in cells:
            m[r, c] = True
        return m

    def test_identity(self):
        gt = [self._mask([(1, 1), (1, 2)]), self._mask([(5, 5), (5, 6), (6, 6)])]
        score, per = mask_ap([m.astype(float) * 30 - 15 for m in gt], np.ones(2), gt)
        assert score == 1.0
        assert all(v == 1.0 for v in per.values())

    def test_disjoint(self):
        gt = [self._mask([(0, 0)])]
        pred = [self._mask([(7, 7)]).astype(float) * 30 - 15]
        score, _ = mask_ap(pred, np.ones(1), gt)
        assert score == 0.0

    def test_overlap_case_matches_hand_iou(self):
        # predicted mask overlaps gt 2/3: IoU passes at 0.5, fails at 0.75
        gt = [self._mask([(1, 1), (1, 2), (1, 3)])]
        pred_cells = [(1, 1), (1, 2)]
        pred = [self._mask(pred_cells).astype(float) * 30 - 15]
        assert mask_iou(self._mask(pred_cells), gt[0]) == pytest.approx(2.0 / 3.0)
        score, per = mask_ap(pred, np.ones(1), gt, iou_thresholds=(0.5, 0.75))
        assert per["0.5"] == 1.0
        assert per["0.75"] == 0.0
        assert score == pytest.approx(0.5)

    def test_binarization_at_half(self):
        gt = [self._mask([(2, 2)])]
        logits = np.full((8, 8), -5.0)
        logits[2, 2] = 5.0
        score, _ = mask_ap([logits], np.ones(1), gt)
        assert score == 1.0

    def test_empty_conventions(self):
        one, _ = mask_ap([], np.zeros(0), [])
        assert one == 1.0
        zero, _ = mask_ap([], np.zeros(0), [self._mask([(0, 0)])])
        assert zero == 0.0
