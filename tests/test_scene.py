"""Scene synthesis, validation, JSON round-trips, and BEV rendering."""

import hashlib

import numpy as np
import pytest

from lanetopo.config import PipelineConfig
from lanetopo.geometry import Polyline
from lanetopo.scene import (
    GT_POINTS,
    Scene,
    SceneParams,
    dump_scene_json,
    lane_cells,
    load_bev,
    load_scene,
    render_bev_features,
    render_gt_masks,
    save_bev,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    synth_scene,
    validate_scene,
)


class TestSynth:
    def test_same_seed_byte_identical_json(self):
        a = dump_scene_json(synth_scene(7))
        b = dump_scene_json(synth_scene(7))
        assert a == b

    def test_different_seeds_differ(self):
        assert dump_scene_json(synth_scene(1)) != dump_scene_json(synth_scene(2))

    @pytest.mark.parametrize(
        "seed, params, digest",
        [
            (0, None, "408ad772898319c0aa65cd7fa2ed70ef14366254db74c44bee5231d18ed8c4f0"),
            (7, None, "4330f2b1b06a54061d6ffbd91fe9fe55be50e2eb016d508e3013a8c2ded0d532"),
            (0, SceneParams(n_lanes=2, intersections=0),
             "4d124ed7cfa0ac4059735f14927c1fa811230dc72e48f88034e244753cee62a2"),
            (7, SceneParams(n_lanes=2, intersections=0),
             "0913d1650678037c7494774e1f5f8871d8d24299986281a413b621499a66d6e7"),
        ],
        ids=["default-0", "default-7", "two-lanes-0", "two-lanes-7"],
    )
    def test_generated_bytes_are_pinned(self, seed, params, digest):
        # the generator's draws and its fixed arc radii and SD polyline length
        text = dump_scene_json(synth_scene(seed, params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_zero_intersections_means_no_virtual(self):
        scene = synth_scene(3, SceneParams(intersections=0))
        assert all(scene.is_real)
        assert scene.adjacency.sum() == 0

    def test_intersection_produces_virtual_connectors_and_edges(self):
        scene = synth_scene(4, SceneParams(intersections=1))
        assert not all(scene.is_real)
        assert scene.adjacency.sum() >= 2 * (scene.n_lanes - sum(scene.is_real))

    def test_invariants_hold_over_many_seeds(self):
        for seed in range(25):
            scene = synth_scene(seed)
            validate_scene(scene)  # raises on violation
            for lane in scene.centerlines:
                assert len(lane) == GT_POINTS

    def test_lane_params_respected(self):
        scene = synth_scene(5, SceneParams(n_lanes=4, intersections=0))
        assert scene.n_lanes == 4

    def test_generator_sweep_stays_valid(self):
        for n_lanes in (1, 2, 4, 5):
            for inter in (0, 1):
                for seed in (0, 1, 2):
                    validate_scene(synth_scene(seed, SceneParams(n_lanes=n_lanes, intersections=inter)))

    def test_validator_catches_bounds_violation(self):
        scene = synth_scene(6, SceneParams(intersections=0))
        bad = Scene(
            centerlines=[Polyline(l.pts + np.array([100.0, 0, 0])) for l in scene.centerlines],
            is_real=scene.is_real,
            adjacency=scene.adjacency,
            sd_instances=scene.sd_instances,
            seed=scene.seed,
        )
        with pytest.raises(ValueError):
            validate_scene(bad)

    def test_validator_catches_broken_adjacency(self):
        scene = synth_scene(8, SceneParams(intersections=0))
        adjacency = scene.adjacency.copy()
        adjacency[0, scene.n_lanes - 1] = 1  # parallel lanes are not connected
        bad = Scene(
            centerlines=scene.centerlines,
            is_real=scene.is_real,
            adjacency=adjacency,
            sd_instances=scene.sd_instances,
            seed=scene.seed,
        )
        with pytest.raises(ValueError):
            validate_scene(bad)


class TestSceneJson:
    def test_round_trip_is_lossless(self, tmp_path):
        scene = synth_scene(11)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert dump_scene_json(loaded) == dump_scene_json(scene)
        for a, b in zip(scene.centerlines, loaded.centerlines):
            assert np.array_equal(a.pts, b.pts)
        assert np.array_equal(scene.adjacency, loaded.adjacency)

    def test_dict_round_trip(self):
        scene = synth_scene(12)
        again = scene_from_dict(scene_to_dict(scene))
        assert dump_scene_json(again) == dump_scene_json(scene)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            scene_from_dict({"schema_version": 1, "kind": "something-else"})

    def test_rejects_adjacency_outside_zero_one(self):
        doc = scene_to_dict(synth_scene(14, SceneParams(n_lanes=1, intersections=0)))
        assert doc["adjacency"] == [[0]]
        doc["adjacency"] = [[7]]
        with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
            scene_from_dict(doc)

    def test_fractional_adjacency_rejected_before_the_int_cast(self):
        doc = scene_to_dict(synth_scene(14))
        assert sum(map(sum, doc["adjacency"])) > 0
        doc["adjacency"] = [[0.7 * v for v in row] for row in doc["adjacency"]]
        with pytest.raises(ValueError, match="adjacency entries must be 0 or 1"):
            scene_from_dict(doc)

    def test_non_numeric_adjacency_rejected(self):
        doc = scene_to_dict(synth_scene(14, SceneParams(n_lanes=1, intersections=0)))
        doc["adjacency"] = [["1"]]
        with pytest.raises(ValueError, match="adjacency must hold numbers"):
            scene_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["sd_instances"][0].update(semantic_type=1.5),
             r"sd_instances\[0\]\.semantic_type must be an integer, got 1\.5"),
            (lambda d: d["sd_instances"][1].update(semantic_type="2"),
             r"sd_instances\[1\]\.semantic_type must be an integer"),
            (lambda d: d.update(seed=2.5), "seed must be an integer, got 2.5"),
            (lambda d: d.update(seed=True), "seed must be an integer, got True"),
        ],
    )
    def test_non_integral_ids_rejected(self, edit, message):
        doc = scene_to_dict(synth_scene(15))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            scene_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(centerlines=None), "centerlines must be a list, got NoneType"),
            (lambda d: d["centerlines"].__setitem__(0, 5),
             r"centerlines\[0\] must be an object, got int"),
            (lambda d: d["sd_instances"][0].update(points={}), r"sd_instances\[0\]\.points: "),
            (lambda d: d["centerlines"][1].update(is_real="no"),
             r"centerlines\[1\]\.is_real must be true or false"),
        ],
        ids=["null-list", "number-entry", "object-points", "string-is-real"],
    )
    def test_malformed_entries_are_one_value_error(self, edit, message):
        doc = scene_to_dict(synth_scene(15))
        edit(doc)
        with pytest.raises(ValueError, match=message):
            scene_from_dict(doc)

    def test_whole_float_ids_load_as_ints(self):
        scene = synth_scene(15)
        doc = scene_to_dict(scene)
        doc["seed"] = float(doc["seed"])
        doc["sd_instances"][0]["semantic_type"] = float(doc["sd_instances"][0]["semantic_type"])
        assert dump_scene_json(scene_from_dict(doc)) == dump_scene_json(scene)

    @pytest.mark.parametrize("key", ["centerlines", "adjacency", "sd_instances", "seed"])
    def test_missing_key_is_named(self, key):
        doc = scene_to_dict(synth_scene(16))
        del doc[key]
        with pytest.raises(ValueError, match=f"scene document lacks key '{key}'"):
            scene_from_dict(doc)

    def test_missing_nested_key_is_named(self):
        doc = scene_to_dict(synth_scene(16))
        del doc["centerlines"][0]["is_real"]
        with pytest.raises(ValueError, match="scene document lacks key 'is_real'"):
            scene_from_dict(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ValueError, match="not a recognized scene document"):
            scene_from_dict([1, 2])


class TestRenderBev:
    def test_empty_scene_all_zero(self):
        empty = Scene(
            centerlines=[],
            is_real=[],
            adjacency=np.zeros((0, 0), dtype=np.int64),
            sd_instances=[],
            seed=0,
        )
        cfg = PipelineConfig.desk(noise_sigma=0.0)
        grid = render_bev_features(empty, cfg)
        assert np.array_equal(grid.data, np.zeros_like(grid.data))

    def test_occupancy_exactly_on_dilated_cells(self):
        cfg = PipelineConfig.desk(noise_sigma=0.0)
        scene = synth_scene(13, SceneParams(intersections=0))
        grid = render_bev_features(scene, cfg)
        expected = set()
        for lane, real in zip(scene.centerlines, scene.is_real):
            if real:
                expected |= lane_cells(lane, cfg.grid)
        occupied = {tuple(rc) for rc in np.argwhere(grid.data[:, :, 0] == 1.0)}
        assert occupied == expected

    def test_virtual_lanes_write_weak_occupancy(self):
        cfg = PipelineConfig.desk(noise_sigma=0.0)
        scene = synth_scene(14, SceneParams(intersections=1))
        grid = render_bev_features(scene, cfg)
        weak = np.isclose(grid.data[:, :, 0], 0.2)
        assert weak.any()

    def test_noise_statistics(self):
        scene = synth_scene(15, SceneParams(intersections=0))
        clean = render_bev_features(scene, PipelineConfig.desk(noise_sigma=0.0))
        noisy = render_bev_features(scene, PipelineConfig.desk(noise_sigma=0.1))
        deviation = (noisy.data - clean.data).reshape(-1)
        assert deviation.size >= 10_000
        assert 0.08 <= deviation.std() <= 0.12

    def test_noise_is_deterministic_per_seed(self):
        cfg = PipelineConfig.desk(noise_sigma=0.05)
        scene = synth_scene(16, SceneParams(intersections=0))
        a = render_bev_features(scene, cfg)
        b = render_bev_features(scene, cfg)
        assert np.array_equal(a.data, b.data)

    def test_gt_masks_cover_lane_cells(self):
        cfg = PipelineConfig.desk()
        scene = synth_scene(17, SceneParams(intersections=0))
        masks = render_gt_masks(scene, cfg.grid)
        assert masks.shape == (scene.n_lanes, cfg.grid.h, cfg.grid.w)
        for i, lane in enumerate(scene.centerlines):
            cells = lane_cells(lane, cfg.grid)
            assert {tuple(rc) for rc in np.argwhere(masks[i] > 0)} == cells


class TestBevContainer:
    def test_binary_round_trip(self, tmp_path):
        cfg = PipelineConfig.desk(noise_sigma=0.05)
        scene = synth_scene(18, SceneParams(intersections=0))
        grid = render_bev_features(scene, cfg)
        path = tmp_path / "bev.bin"
        save_bev(grid, path)
        loaded = load_bev(path, cfg.grid)
        assert np.array_equal(loaded.data, grid.data)
        # header is h, w, c little-endian int32
        header = np.frombuffer(path.read_bytes()[:12], dtype="<i4")
        assert list(header) == [grid.h, grid.w, grid.c]

    def test_wrong_grid_rejected(self, tmp_path):
        cfg = PipelineConfig.desk(noise_sigma=0.0)
        scene = synth_scene(19, SceneParams(intersections=0))
        grid = render_bev_features(scene, cfg)
        path = tmp_path / "bev.bin"
        save_bev(grid, path)
        other = PipelineConfig.desk(resolution=2.5).grid
        with pytest.raises(ValueError):
            load_bev(path, other)

    def test_truncated_payload_names_both_byte_counts(self, tmp_path):
        cfg = PipelineConfig.desk(noise_sigma=0.0)
        grid = render_bev_features(synth_scene(20, SceneParams(intersections=0)), cfg)
        path = tmp_path / "bev.bin"
        save_bev(grid, path)
        path.write_bytes(path.read_bytes()[:-1])
        expected = grid.h * grid.w * grid.c * 8
        with pytest.raises(ValueError, match=f"must be {expected} bytes, got {expected - 1} bytes"):
            load_bev(path, cfg.grid)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "fewer than the 12-byte header"),
            (np.array([50, 100], dtype="<i4").tobytes(), "fewer than the 12-byte header"),
            (np.array([50, 0, 32], dtype="<i4").tobytes(), "dims must be positive"),
            (np.array([50, -100, 32], dtype="<i4").tobytes(), "dims must be positive"),
        ],
    )
    def test_short_or_bad_header_rejected(self, tmp_path, raw, message):
        path = tmp_path / "bev.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            load_bev(path, PipelineConfig.desk().grid)
