"""Configuration defaults, validation, and JSON round-trips."""

import dataclasses
import json

import pytest

from lanetopo import config, metrics, points_mask
from lanetopo.config import ConfigError, LossCoefficients, PipelineConfig
from lanetopo.scene import render_gt_masks, synth_scene

# fields an older PipelineConfig carried, at their old defaults; the thresholds
# are now fixed constants of the method and the scoring protocol, the working
# area, the z range, the SD type count and the sampling points constants of
# lanetopo.config, the grid size follows from the resolution, and the loss
# weights are LossCoefficients passed to total_loss
REMOVED_FIELDS = {
    "mask_threshold": 0.5,
    "validity_threshold": 0.5,
    "outlier_threshold": 1.5,
    "det_thresholds": [1.0, 2.0, 3.0],
    "top_match_threshold": 1.0,
    "mask_iou_thresholds": [0.5, 0.75],
    "x_min": -50.0,
    "y_min": -25.0,
    "z_min": -5.0,
    "z_max": 5.0,
    "n_semantic_types": 3,
    "loss": {"top": 5.0, "cls": 1.5, "det": 0.025, "mask": 1.0, "mp": 7.0},
    "sample_points": 4,
    "sd_sample_points": 4,
    "grid_h": 100,
    "grid_w": 200,
}


def test_full_size_defaults():
    cfg = PipelineConfig()
    assert (cfg.n_real, cfg.n_virtual, cfg.k) == (150, 150, 11)
    assert (cfg.channels, cfg.layers, cfg.heads, cfg.ffn_dim) == (256, 4, 8, 512)
    assert (cfg.grid.h, cfg.grid.w, cfg.resolution) == (100, 200, 0.5)
    assert LossCoefficients() == LossCoefficients(top=5.0, cls=1.5, det=0.025, mask=1.0, mp=7.0)
    assert len(dataclasses.fields(cfg)) == 17
    assert config.SAMPLE_POINTS == 4
    assert (config.X_MIN, config.X_MAX, config.Y_MIN, config.Y_MAX) == (-50.0, 50.0, -25.0, 25.0)
    assert (config.Z_MIN, config.Z_MAX, config.N_SEMANTIC_TYPES) == (-5.0, 5.0, 3)
    assert (points_mask.OUTLIER_THRESHOLD, points_mask.VALIDITY_THRESHOLD) == (1.5, 0.5)
    assert metrics.DET_THRESHOLDS == (1.0, 2.0, 3.0)
    assert metrics.TOP_MATCH_THRESHOLD == 1.0
    assert metrics.MASK_IOU_THRESHOLDS == (0.5, 0.75)


def test_grid_covers_working_area():
    grid = PipelineConfig().grid
    assert (grid.x_min, grid.x_max) == (-50.0, 50.0)
    assert (grid.y_min, grid.y_max) == (-25.0, 25.0)
    desk = PipelineConfig.desk().grid
    assert (desk.x_min, desk.x_max) == (-50.0, 50.0)
    assert (desk.y_min, desk.y_max) == (-25.0, 25.0)


def test_every_accepted_resolution_spans_the_working_area():
    accepted = []
    for n in range(1, 201):
        try:
            grid = PipelineConfig.desk(resolution=50 / n).grid
        except ConfigError:
            continue
        accepted.append(n)
        assert (grid.x_min, grid.x_max) == (config.X_MIN, config.X_MAX), n
        assert (grid.y_min, grid.y_max) == (config.Y_MIN, config.Y_MAX), n
        assert (grid.h, grid.w) == (n, 2 * n)
    assert 1 not in accepted  # a single row
    assert {2, 4, 10, 20, 50, 100} <= set(accepted)


def test_the_desk_grid_renders_every_lane_of_a_scene():
    cfg = PipelineConfig.desk()
    masks = render_gt_masks(synth_scene(7), cfg.grid)
    assert masks.shape == (10, 50, 100)
    assert masks.reshape(len(masks), -1).any(axis=1).all()


def test_json_round_trip(tmp_path):
    cfg = PipelineConfig.desk(seed=11, sd=True)
    path = tmp_path / "config.json"
    cfg.save(path)
    again = PipelineConfig.load(path)
    assert again.to_dict() == cfg.to_dict()


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"n_real": 4, "bogus": 1})


def test_a_config_with_the_removed_threshold_fields_is_refused(tmp_path):
    doc = {**PipelineConfig.desk().to_dict(), **REMOVED_FIELDS}
    assert len(doc) == 33
    path = tmp_path / "old-config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        PipelineConfig.load(path)
    assert str(err.value) == f"unknown config fields: {sorted(REMOVED_FIELDS)}"


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": 1},
        {"layers": 0},
        {"channels": 30},  # not divisible by 4
        {"channels": 36, "heads": 8},  # heads do not divide channels
        {"n_virtual": -1},
        {"sd_heads": 0},
        {"n_real": 0},
        {"channels": "x"},
        {"k": 2.5},
        {"n_real": True},
        {"seed": 1.5},
        {"channels": 36, "heads": 2, "sd_heads": 8, "sd": True},
        {"pgm": 1},
        {"resolution": "0.5"},
        {"sd": {"on": True}},
        {"resolution": 0.3},  # 166.7 rows: no whole cells
        {"resolution": 0.0},
        {"heads": 0},
        {"pgm": "no"},
        {"resolution": float("nan")},
        {"resolution": True},
        {"resolution": float("inf")},
        {"noise_sigma": float("nan")},
        {"seed": None},
        {"layers": -1},
        {"channels": [32]},
        {"noise_sigma": float("-inf")},
        {"noise_sigma": -1.0},
        {"resolution": 30.0},  # 1.7 rows
        {"n_real": 10**400},  # an int beyond the float range
        {"resolution": 10**400},
        {"sd_layers": -1},
        {"ffn_dim": -1},
        {"ffn_dim": 0},
        {"channels": 0},  # divisible by 4 and by every head count
        {"resolution": 50.0},  # one row: the row readout needs two
        {"resolution": 100.0},  # half a row
    ],
)
def test_invalid_values_rejected(overrides):
    base = PipelineConfig.desk().to_dict()
    base.update(overrides)
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(base)


def test_toggles_are_independent_fields_until_run():
    cfg = PipelineConfig.desk(pgm=False, pmf=True)  # constructible
    with pytest.raises(ConfigError):
        cfg.check_runnable()
    PipelineConfig.desk(pgm=True, pmf=True).check_runnable()
