"""End-to-end pipeline behavior: toggles, determinism, file formats, and an
oracle-weight run that must reach perfect detection."""

import base64
import hashlib
import json
import tracemalloc
import zlib
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.special import logit

from lanetopo import pipeline
from lanetopo.bev import GridSpec, MlpWeights, sigmoid
from lanetopo.config import Z_MAX, Z_MIN, ConfigError, LossCoefficients, PipelineConfig
from lanetopo.decoder import CenterlinePrediction
from lanetopo.geometry import Polyline, resample_polyline
from lanetopo.losses import ModelOutputs, total_loss
from lanetopo.pipeline import (
    ablation_grid,
    dump_predictions_json,
    evaluate_outputs,
    evaluate_prediction_file,
    fuse,
    infer,
    load_predictions,
    run_pipeline,
    save_predictions,
    sd_features,
)
from lanetopo.scene import (
    SceneParams,
    load_scene,
    render_bev_features,
    render_gt_masks,
    save_scene,
    synth_scene,
)
from lanetopo.weights import (
    _weight_dims,
    check_weights,
    init_model_weights,
    load_model_weights,
    save_model_weights,
    weight_shapes,
)
from make_golden import (
    ABLATIONS,
    COMBOS,
    DESK_COMBO,
    GOLDEN_PATH,
    SEEDS,
    golden_arrays,
    run_key,
)


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
        breakdown = total_loss(result.outputs, scene, LossCoefficients())
        assert np.isfinite(breakdown.total)
        assert abs(breakdown.total - breakdown.recombine(LossCoefficients())) < 1e-9


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
            u[:, 2] = (gt_k[:, 2] - Z_MIN) / (Z_MAX - Z_MIN)
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


class TestGoldenFixture:
    """Fresh desk runs against tests/data/golden_desk.npz (see make_golden.py)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(GOLDEN_PATH) as data:
            return dict(data)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("combo", COMBOS, ids=lambda c: "pgm%d_pmf%d_sd%d" % c)
    def test_run_matches_fixture(self, golden, seed, combo):
        self.check_run(golden, seed, *combo)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: "hybrid%d_rvs%d" % a)
    def test_decoder_ablation_matches_fixture(self, golden, seed, ablation):
        self.check_run(golden, seed, *DESK_COMBO, *ablation)

    @staticmethod
    def check_run(golden, seed, *toggles):
        fresh = golden_arrays(seed, *toggles)
        prefix = run_key(seed, *toggles) + "/"
        assert set(fresh) == {k for k in golden if k.startswith(prefix)}
        for key, value in fresh.items():
            np.testing.assert_allclose(value, golden[key], rtol=0, atol=1e-9, err_msg=key)

    def test_fixture_stays_small(self):
        assert GOLDEN_PATH.stat().st_size <= 2_000_000


def ablation_rows_per_run(scene, cfg, weights):
    """Reference ablation grid: one whole run_pipeline per combination."""
    rows = []
    for pgm in (False, True):
        for pmf in (False, True):
            for sd in (False, True):
                row = {"pgm": pgm, "pmf": pmf, "sd": sd}
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


def assert_outputs_equal(a, b):
    assert len(a.predictions) == len(b.predictions)
    for p, q in zip(a.predictions, b.predictions):
        assert np.array_equal(p.points.pts, q.points.pts)
        assert (p.score, p.is_real) == (q.score, q.is_real)
        assert np.array_equal(p.query, q.query)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert np.array_equal(a.mask_logits, b.mask_logits)
    assert a.grid == b.grid
    for ra, rb in zip([*a.col_readouts, *a.row_readouts], [*b.col_readouts, *b.row_readouts]):
        assert ra.axis == rb.axis and ra.direction == rb.direction
        assert np.array_equal(ra.coords, rb.coords)
        assert np.array_equal(ra.existence, rb.existence)


class TestStages:
    @pytest.mark.parametrize(
        "scene_seed, shape", [(40, (1, 0)), (41, (2, 0)), (42, (1, 1))], ids=str
    )
    def test_ablation_grid_equals_one_run_per_row(self, monkeypatch, scene_seed, shape):
        """Rows, and the outputs and GT masks each row is scored on, equal the
        one-run-per-row reference. Random weights score 0 or 1 on every row,
        so the rows alone would not show a wrong shared stage. A fused row is
        scored without masks and takes AP_l from its unfused row, so that
        row's masks must equal the fused reference run's."""
        scored = []
        real_evaluate = pipeline.evaluate_outputs
        real_mask_ap = pipeline.mask_ap
        mask_ap_calls = []
        # the (pgm, pmf, sd) rows in the order each side scores them
        valid = [c for c in product((False, True), repeat=3) if c[0] or not c[1]]
        grid_order = sorted(valid, key=lambda c: (c[0], c[2], c[1]))

        def recording_evaluate(outputs, scene, gt_masks=None):
            scored.append((outputs, gt_masks))
            return real_evaluate(outputs, scene, gt_masks)

        def counting_mask_ap(*args, **kwargs):
            mask_ap_calls.append(1)
            return real_mask_ap(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate_outputs", recording_evaluate)
        monkeypatch.setattr(pipeline, "mask_ap", counting_mask_ap)
        cfg = desk_cfg()
        scene = synth_scene(scene_seed, SceneParams(n_lanes=shape[0], intersections=shape[1]))
        w = init_model_weights(cfg)
        rows = ablation_grid(scene, cfg, w)
        assert len(scored) == len(grid_order)
        staged = dict(zip(grid_order, scored))
        assert len(mask_ap_calls) == 4
        scored.clear()
        assert rows == ablation_rows_per_run(scene, cfg, w)
        assert len(scored) == len(valid)
        per_run = {combo: outputs for combo, (outputs, _) in zip(valid, scored)}

        assert staged.keys() == per_run.keys() and len(staged) == 6
        assert sum(sd for _, _, sd in staged) == 3
        gt = render_gt_masks(scene, cfg.grid)
        for (pgm, pmf, sd), (outputs, gt_masks) in staged.items():
            if pmf:
                assert outputs.mask_logits is None
                outputs = replace(outputs, mask_logits=staged[pgm, False, sd][0].mask_logits)
            assert_outputs_equal(outputs, per_run[pgm, pmf, sd])
            assert np.array_equal(np.stack(gt_masks), gt)

    @pytest.mark.parametrize("sd", [False, True])
    def test_run_pipeline_is_fuse_of_infer(self, sd):
        cfg = desk_cfg(sd=sd)
        scene = synth_scene(43)
        w = init_model_weights(cfg)
        bev = render_bev_features(scene, cfg)
        staged = fuse(infer(sd_features(bev, scene, w) if sd else bev, cfg, w))
        assert_outputs_equal(run_pipeline(scene, cfg, w).outputs, staged)

    def test_fuse_leaves_its_input_unchanged(self):
        cfg = desk_cfg()
        w = init_model_weights(cfg)
        inferred = infer(render_bev_features(synth_scene(44), cfg), cfg, w)
        before = [p.points.pts.copy() for p in inferred.predictions]
        fused = fuse(inferred)
        assert all(
            np.array_equal(p.points.pts, pts) for p, pts in zip(inferred.predictions, before)
        )
        moved = [
            not np.array_equal(p.points.pts, q.points.pts)
            for p, q in zip(inferred.predictions, fused.predictions)
        ]
        assert any(moved), "fusion refined no prediction, so the check above is vacuous"

    def test_ablation_grid_rejects_mismatched_weights_first(self):
        cfg = desk_cfg()
        with pytest.raises(ValueError, match="config expects"):
            ablation_grid(synth_scene(45), cfg, init_model_weights(desk_cfg(n_real=8)))


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
        assert from_file == evaluate_outputs(outputs, scene)
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

    def test_written_document_is_compact_canonical_json(self):
        cfg = desk_cfg()
        outputs = run_pipeline(synth_scene(31), cfg, init_model_weights(cfg)).outputs
        text = dump_predictions_json(outputs)
        assert text.endswith("}\n") and text.count("\n") == 1
        assert ", " not in text and ": " not in text
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def outputs_with_masks(mask_logits: np.ndarray) -> ModelOutputs:
    """Outputs of n identical predictions carrying ``mask_logits`` (n, h, w)."""
    n, h, w = mask_logits.shape
    line = Polyline(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    pred = CenterlinePrediction(points=line, score=0.5, is_real=True, query=np.zeros(1))
    return ModelOutputs(
        predictions=[pred] * n,
        adjacency=np.zeros((n, n)),
        grid=GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0),
        mask_logits=mask_logits,
    )


def encoded(payload: bytes) -> str:
    return base64.b64encode(zlib.compress(payload)).decode("ascii")


class TestPackedMasks:
    @pytest.mark.parametrize("shape", [(3, 5, 7), (1, 1, 1), (2, 3, 4), (0, 4, 6)],
                             ids=["105-bits", "one-bit", "24-bits", "no-masks"])
    def test_round_trip_is_exact(self, tmp_path, shape):
        logits = np.random.default_rng(0).normal(size=shape)
        logits.flat[: min(logits.size, 2)] = 0.0  # sigmoid(0) = 0.5 is set
        outputs = outputs_with_masks(logits)
        path = tmp_path / "pred.json"
        save_predictions(outputs, path)
        expected = sigmoid(logits) >= 0.5
        masks = load_predictions(path, outputs.grid)[4]
        assert np.array_equal(np.reshape(masks, shape), expected)
        assert all(m.dtype == bool for m in masks)

        doc = json.loads(path.read_text())
        assert doc["masks"].keys() == {"encoding", "data"}
        assert doc["masks"]["encoding"] == "bits-zlib-b64"
        packed = zlib.decompress(base64.b64decode(doc["masks"]["data"]))
        assert len(packed) == -(-expected.size // 8)
        assert np.array_equal(np.unpackbits(np.frombuffer(packed, np.uint8))[: expected.size],
                              expected.reshape(-1))  # row-major, most significant bit first

    @pytest.mark.parametrize("shape, size", [((3, 5, 7), 14), ((0, 4, 6), 0)])
    def test_a_zlib_bomb_is_refused_within_the_claimed_size(self, tmp_path, shape, size):
        outputs = outputs_with_masks(np.zeros(shape))
        path = tmp_path / "pred.json"
        save_predictions(outputs, path)
        doc = json.loads(path.read_text())
        deflate = zlib.compressobj()
        zeros = [deflate.compress(bytes(1 << 20)) for _ in range(64)]  # 64 MiB
        doc["masks"]["data"] = base64.b64encode(b"".join(zeros) + deflate.flush()).decode()
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"must inflate to exactly {size} bytes"):
                load_predictions(path, outputs.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
            doc["predictions"].pop()
            doc["adjacency"] = [row[:-1] for row in doc["adjacency"][:-1]]

        with pytest.raises(ValueError, match=r"masks\.data must inflate to exactly 19375 bytes"):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_unedited_document_scores(self, saved, tmp_path):
        report = self.evaluate_edited(saved, tmp_path, lambda doc: None)
        assert np.isfinite([report.det_l, report.top_ll, report.ap_l]).all()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda doc: doc.pop("predictions"), "predictions"),
            (lambda doc: doc.pop("adjacency"), "adjacency"),
            (lambda doc: doc["predictions"][3].pop("score"), "score"),
            (lambda doc: doc["masks"].pop("data"), "data"),
            (lambda doc: doc.pop("grid"), "grid"),
        ],
    )
    def test_missing_key_is_named(self, saved, tmp_path, edit, key):
        with pytest.raises(ValueError, match=f"prediction document lacks key '{key}'"):
            self.evaluate_edited(saved, tmp_path, edit)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(predictions=[1, 2]), r"predictions\[0\] must be an object"),
            (lambda doc: doc.update(predictions={}), "predictions must be a list"),
            (lambda doc: doc["predictions"][2].update(is_real=1),
             r"predictions\[2\]\.is_real must be true or false"),
            (lambda doc: doc["predictions"][1].update(points=None), r"predictions\[1\]\.points"),
            (lambda doc: doc.update(masks=[1]), "masks must be an object, got list"),
            (lambda doc: doc["masks"].update(encoding="rle-0.5"),
             "masks.encoding must be 'bits-zlib-b64', got 'rle-0.5'"),
            (lambda doc: doc["masks"].update(data=5), "masks.data must be a string, got int"),
            (lambda doc: doc["masks"].update(data="not base64!"), r"masks\.data: "),
            (lambda doc: doc["masks"].update(data="AAAA"), r"masks\.data: Error -3"),
            (lambda doc: doc["masks"].update(data=encoded(bytes(20000) + b"x")),
             r"masks\.data must inflate to exactly 20000 bytes"),
            (lambda doc: doc["masks"].update(data=doc["masks"]["data"][:-8]),
             r"masks\.data"),
            (lambda doc: doc["grid"].update(w=99), "masks: the document's grid is not the "
             "configured 50x100"),
            (lambda doc: doc.update(grid=[50, 100]), "masks: the document's grid"),
            (lambda doc: doc["grid"].update(resolution=0.5), "masks: the document's grid is "
             "not the configured 50x100 at 1 m"),
            (lambda doc: doc.update(
                schema_version=1,
                masks={"h": 50, "w": 100, "encoding": "rle-0.5", "instances": [[]] * 32},
            ), "predictions schema_version must be 2, got 1"),
            (lambda doc: doc.pop("schema_version"), "schema_version must be 2, got None"),
            (lambda doc: doc.update(schema_version=99), "schema_version must be 2, got 99"),
        ],
        ids=["number-entries", "object-list", "numeric-is-real", "null-points", "list-masks",
             "rle-encoding", "number-data", "not-base64", "not-zlib", "one-byte-too-many",
             "truncated-stream", "another-grid", "list-grid", "another-resolution", "v1-document",
             "no-version", "version-99"],
    )
    def test_malformed_entries_are_one_value_error(self, saved, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            self.evaluate_edited(saved, tmp_path, edit)

    def test_load_predictions_without_a_grid_skips_the_masks(self, saved, tmp_path):
        doc, _, _ = saved
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(doc))
        lines, scores, is_real, adjacency, masks = load_predictions(path)
        assert masks is None
        assert len(lines) == len(doc["predictions"]) == len(scores) == adjacency.shape[0]
        assert is_real.tolist() == [p["is_real"] for p in doc["predictions"]]

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a recognized predictions document"):
            evaluate_prediction_file(path, synth_scene(34), desk_cfg())

    def test_empty_prediction_set_is_valid(self, saved, tmp_path):
        def edit(doc):
            doc["predictions"], doc["adjacency"] = [], []
            doc["masks"]["data"] = encoded(b"")

        report = self.evaluate_edited(saved, tmp_path, edit)
        assert (report.det_l, report.top_ll, report.ap_l) == (0.0, 0.0, 0.0)


class TestCheckWeights:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"layers": 3, "sd_layers": 2, "k": 7}, {"n_virtual": 0, "heads": 4, "resolution": 2.5}],
    )
    def test_shape_table_matches_initialization(self, overrides):
        cfg = desk_cfg(**overrides)
        w = init_model_weights(cfg)
        assert _weight_dims(w)[0] == weight_shapes(cfg)
        check_weights(cfg, w)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_real": 8},
             r"decoder\.init_ref_logits has shape \(24, 2\), config expects \(32, 2\)"),
            ({"layers": 3}, r"decoder\.layers\.2\.\S+ has shape .*, config expects none"),
            ({"layers": 1}, r"weights lack decoder\.layers\.1\.\S+, config expects shape"),
            ({"k": 5},
             r"decoder\.points_head has in/out dims \(32, 15\), config expects \(32, 33\)"),
            ({"resolution": 1.25}, r"mask_head\.exist_col has in/out dims \(3200, 80\)"),
        ],
    )
    def test_mismatch_names_tensor_and_both_shapes(self, overrides, message):
        cfg = desk_cfg()
        w = init_model_weights(desk_cfg(**overrides))
        with pytest.raises(ValueError, match=message):
            check_weights(cfg, w)
        with pytest.raises(ValueError, match=message):
            run_pipeline(synth_scene(46), cfg, w)


class TestWeightsFile:
    @pytest.mark.parametrize(
        "cfg, seed, digest",
        [
            (PipelineConfig.desk(), 0,
             "385f438d03fb9355b0985854d7fda7db742db1fefdc658b8fdcb776d50f8b714"),
            (PipelineConfig.desk(layers=3, sd_layers=2, k=7, n_virtual=0), 5,
             "7da8048eac075bd85c9a5d78219b81296e5ef75ae6ddd1fd9c61fec01bde71fb"),
        ],
        ids=["desk", "desk-variant"],
    )
    def test_saved_file_bytes_are_pinned(self, tmp_path, cfg, seed, digest):
        """The draw order, the tensor names and the encoding make up the file
        format, so one config and seed always give the same bytes, and a
        loaded file saves back to them."""
        path, again = tmp_path / "weights.json", tmp_path / "again.json"
        save_model_weights(init_model_weights(cfg, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        save_model_weights(load_model_weights(path), again)
        assert again.read_bytes() == path.read_bytes()

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
