"""End-to-end pipeline behavior: toggles, determinism, file formats, and an
oracle-weight run that must reach perfect detection."""

import json

import numpy as np
import pytest
from scipy.special import logit

from lanetopo.bev import MlpWeights
from lanetopo.config import ConfigError, PipelineConfig
from lanetopo.geometry import resample_polyline
from lanetopo.losses import total_loss
from lanetopo.pipeline import (
    ablation_grid,
    dump_predictions_json,
    evaluate_outputs,
    evaluate_prediction_file,
    run_pipeline,
    save_predictions,
)
from lanetopo.scene import SceneParams, load_scene, save_scene, synth_scene
from lanetopo.weights import init_model_weights, load_model_weights, save_model_weights


def desk_cfg(**overrides) -> PipelineConfig:
    base = dict(seed=5)
    base.update(overrides)
    return PipelineConfig.desk(**base)


class TestRunPipeline:
    def test_baseline_all_toggles_off(self):
        cfg = desk_cfg(pgm=False, pmf=False, sd=False, hybrid_attention=False,
                       rvs_self_attention=False)
        scene = synth_scene(21)
        result = run_pipeline(scene, cfg, init_model_weights(cfg))
        assert np.isfinite([result.report.det_l, result.report.top_ll, result.report.ap_l]).all()
        assert len(result.outputs.predictions) == cfg.n_queries

    def test_pmf_without_pgm_is_a_configuration_error(self):
        cfg = desk_cfg(pgm=False, pmf=True)
        scene = synth_scene(22)
        with pytest.raises(ConfigError):
            run_pipeline(scene, cfg, init_model_weights(cfg))

    def test_rvs_toggle_keeps_shape_contract(self):
        scene = synth_scene(23)
        for rvs in (True, False):
            cfg = desk_cfg(rvs_self_attention=rvs)
            result = run_pipeline(scene, cfg, init_model_weights(cfg))
            assert len(result.outputs.predictions) == cfg.n_queries
            assert all(len(p.points) == cfg.k for p in result.outputs.predictions)

    def test_sd_toggle_is_input_substitution(self):
        scene = synth_scene(24)
        cfg_off = desk_cfg(sd=False)
        cfg_on = desk_cfg(sd=True)
        w = init_model_weights(cfg_off)
        off = run_pipeline(scene, cfg_off, w)
        on = run_pipeline(scene, cfg_on, w)
        assert len(off.outputs.predictions) == len(on.outputs.predictions)
        assert off.outputs.adjacency.shape == on.outputs.adjacency.shape

    def test_deterministic_prediction_json(self):
        cfg = desk_cfg()
        scene = synth_scene(25)
        w = init_model_weights(cfg)
        a = dump_predictions_json(run_pipeline(scene, cfg, w).outputs)
        b = dump_predictions_json(run_pipeline(scene, cfg, w).outputs)
        assert a == b

    def test_pmf_never_touches_virtual_predictions(self):
        scene = synth_scene(32)
        cfg_off = desk_cfg(pmf=False)
        cfg_on = desk_cfg(pmf=True)
        w = init_model_weights(cfg_off)
        off = run_pipeline(scene, cfg_off, w)
        on = run_pipeline(scene, cfg_on, w)
        for p_off, p_on in zip(off.outputs.predictions, on.outputs.predictions):
            if not p_on.is_real:
                assert np.array_equal(p_on.points.pts, p_off.points.pts)

    def test_total_loss_runs_on_pipeline_outputs(self):
        cfg = desk_cfg()
        scene = synth_scene(26)
        result = run_pipeline(scene, cfg, init_model_weights(cfg))
        breakdown = total_loss(result.outputs, scene, cfg.loss)
        assert np.isfinite(breakdown.total)
        assert abs(breakdown.total - breakdown.recombine(cfg.loss)) < 1e-9


class TestOracleWeights:
    def test_solved_heads_reach_perfect_detection(self):
        """Solve the points/score heads against the captured final queries so
        the real pipeline reproduces the ground truth exactly."""
        scene = synth_scene(27, SceneParams(n_lanes=3, intersections=0))
        cfg = desk_cfg(
            n_real=8,
            n_virtual=4,
            layers=1,
            hybrid_attention=False,
            pgm=False,
            pmf=False,
            noise_sigma=0.0,
        )
        weights = init_model_weights(cfg)
        first = run_pipeline(scene, cfg, weights)
        final_q = np.stack([p.query for p in first.outputs.predictions])
        grid = cfg.grid

        # target normalized coordinates per query: lanes for the first three
        # real queries, the grid center for everything else
        n, c = final_q.shape
        u_targets = np.full((n, cfg.k, 3), 0.5)
        score_targets = np.full(n, -8.0)
        for i, lane in enumerate(scene.centerlines):
            gt_k = resample_polyline(lane, cfg.k).pts
            u = np.empty_like(gt_k)
            u[:, 0] = (gt_k[:, 0] - grid.x_min) / (grid.x_max - grid.x_min)
            u[:, 1] = (gt_k[:, 1] - grid.y_min) / (grid.y_max - grid.y_min)
            u[:, 2] = (gt_k[:, 2] - cfg.z_min) / (cfg.z_max - cfg.z_min)
            u_targets[i] = np.clip(u, 1e-6, 1 - 1e-6)
            score_targets[i] = 8.0

        design = np.concatenate([final_q, np.ones((n, 1))], axis=1)
        sol_pts, *_ = np.linalg.lstsq(design, logit(u_targets.reshape(n, -1)), rcond=None)
        sol_scr, *_ = np.linalg.lstsq(design, score_targets[:, None], rcond=None)
        weights.decoder.points_head = MlpWeights([(sol_pts[:-1].T, sol_pts[-1], "none")])
        weights.decoder.score_head = MlpWeights([(sol_scr[:-1].T, sol_scr[-1], "none")])

        result = run_pipeline(scene, cfg, weights)
        assert result.report.det_per_threshold["1"] == 1.0
        assert result.report.det_l == 1.0
        lane_scores = [result.outputs.predictions[i].score for i in range(3)]
        assert min(lane_scores) > 0.99


class TestAblationGrid:
    def test_grid_shape_and_errors(self):
        cfg = desk_cfg()
        scene = synth_scene(28)
        rows = ablation_grid(scene, cfg, init_model_weights(cfg))
        assert len(rows) == 8
        combos = {(r["pgm"], r["pmf"], r["sd"]) for r in rows}
        assert len(combos) == 8
        for row in rows:
            if row["pmf"] and not row["pgm"]:
                assert "error" in row
            else:
                assert {"det_l", "top_ll", "ap_l"} <= set(row)


class TestPredictionFiles:
    def test_save_and_evaluate_round_trip(self, tmp_path):
        cfg = desk_cfg()
        scene = synth_scene(29)
        result = run_pipeline(scene, cfg, init_model_weights(cfg))
        pred_path = tmp_path / "pred.json"
        save_predictions(result.outputs, pred_path)
        report = evaluate_prediction_file(pred_path, scene, cfg)
        assert report.det_l == pytest.approx(result.report.det_l, abs=1e-12)
        assert report.top_ll == pytest.approx(result.report.top_ll, abs=1e-12)
        assert report.ap_l == pytest.approx(result.report.ap_l, abs=1e-12)

    def test_file_and_in_memory_scores_agree_exactly(self, tmp_path):
        cfg = desk_cfg(pgm=False, pmf=False)
        scene = synth_scene(33)
        result = run_pipeline(scene, cfg, init_model_weights(cfg))
        outputs = result.outputs
        outputs.mask_logits = None  # masks are thresholded on the way to disk
        pred_path = tmp_path / "pred.json"
        save_predictions(outputs, pred_path)
        from_file = evaluate_prediction_file(pred_path, scene, cfg)
        assert from_file == evaluate_outputs(outputs, scene, cfg)
        assert from_file.ap_l == 0.0 and from_file.ap_per_threshold == {}

    def test_scene_file_round_trip_through_pipeline(self, tmp_path):
        scene = synth_scene(30)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        cfg = desk_cfg()
        w = init_model_weights(cfg)
        a = dump_predictions_json(run_pipeline(scene, cfg, w).outputs)
        b = dump_predictions_json(run_pipeline(loaded, cfg, w).outputs)
        assert a == b


class TestPredictionFileValidation:
    """A malformed prediction document fails with one ValueError naming the
    field, before any scoring."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        cfg = desk_cfg()
        scene = synth_scene(34)
        result = run_pipeline(scene, cfg, init_model_weights(cfg))
        path = tmp_path_factory.mktemp("pred") / "pred.json"
        save_predictions(result.outputs, path)
        return json.loads(path.read_text()), scene, cfg

    def evaluate_edited(self, saved, tmp_path, edit):
        doc, scene, cfg = saved
        doc = json.loads(json.dumps(doc))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return evaluate_prediction_file(path, scene, cfg)

    @pytest.mark.parametrize("size", [1, 2])
    def test_small_adjacency_rejected(self, saved, tmp_path, size):
        def edit(doc):
            doc["adjacency"] = [row[:size] for row in doc["adjacency"][:size]]

        with pytest.raises(ValueError, match=r"adjacency must have shape \(\d+, \d+\)"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_non_square_adjacency_rejected(self, saved, tmp_path):
        def edit(doc):
            doc["adjacency"] = [row[:-1] for row in doc["adjacency"]]

        with pytest.raises(ValueError, match="adjacency must have shape"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_ragged_adjacency_rejected(self, saved, tmp_path):
        def edit(doc):
            doc["adjacency"][1] = doc["adjacency"][1][:-1]

        with pytest.raises(ValueError, match="adjacency must hold numbers"):
            self.evaluate_edited(saved, tmp_path, edit)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_adjacency_rejected(self, saved, tmp_path, value):
        def edit(doc):
            doc["adjacency"][0][1] = value

        with pytest.raises(ValueError, match=r"adjacency must be finite, got .* at index \[0, 1\]"):
            self.evaluate_edited(saved, tmp_path, edit)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_score_rejected(self, saved, tmp_path, value):
        def edit(doc):
            doc["predictions"][2]["score"] = value

        with pytest.raises(ValueError, match=r"predictions\[\]\.score must be finite.*\[2\]"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_non_numeric_score_rejected(self, saved, tmp_path):
        def edit(doc):
            doc["predictions"][0]["score"] = "high"

        with pytest.raises(ValueError, match=r"predictions\[\]\.score must hold numbers"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_short_polyline_names_the_prediction(self, saved, tmp_path):
        def edit(doc):
            doc["predictions"][1]["points"] = doc["predictions"][1]["points"][:1]

        with pytest.raises(ValueError, match=r"predictions\[1\]\.points"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_mask_count_must_match_predictions(self, saved, tmp_path):
        def edit(doc):
            doc["masks"]["instances"].pop()

        with pytest.raises(ValueError, match="masks.instances"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_unedited_document_scores(self, saved, tmp_path):
        report = self.evaluate_edited(saved, tmp_path, lambda doc: None)
        assert np.isfinite([report.det_l, report.top_ll, report.ap_l]).all()

    def test_empty_prediction_set_is_valid(self, saved, tmp_path):
        def edit(doc):
            doc["predictions"], doc["adjacency"] = [], []
            doc["masks"]["instances"] = []

        report = self.evaluate_edited(saved, tmp_path, edit)
        assert (report.det_l, report.top_ll, report.ap_l) == (0.0, 0.0, 0.0)


class TestWeightsFile:
    def test_unrecognized_format_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text('{"format": "something-else", "tensors": {}}')
        with pytest.raises(ValueError):
            load_model_weights(path)

    def test_weights_round_trip_preserves_forward_pass(self, tmp_path):
        cfg = desk_cfg()
        scene = synth_scene(31)
        w = init_model_weights(cfg)
        path = tmp_path / "weights.json"
        save_model_weights(w, path)
        loaded = load_model_weights(path)
        a = dump_predictions_json(run_pipeline(scene, cfg, w).outputs)
        b = dump_predictions_json(run_pipeline(scene, cfg, loaded).outputs)
        assert a == b
