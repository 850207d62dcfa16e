"""Span recorder: self-time arithmetic, wrapping, counters on hand-built inputs."""

import sys
import types

import numpy as np
import pytest

import spans
from lanetopo.bev import GridSpec
from lanetopo.geometry import Polyline
from lanetopo.points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    MaskPointReadout,
    fuse_points,
    select_point_set,
)


def span(name, start, end, parent=None, op="a"):
    return spans.Span(name, start, end, parent, op)


def test_self_times_on_hand_built_tree():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("b.child", 6.0, 7.5, parent=2),
        span("other-op", 20.0, 21.0, op="b"),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.5, 1.0])


def test_summary_is_per_op_and_self_times_cover_the_op():
    tracer = spans.Tracer()
    tracer.installed = ["metrics.det_l", "geometry.discrete_frechet", "weights.init_model_weights"]
    tracer.spans = [
        span("weights.init_model_weights", 0.0, 0.5, op=spans.SETUP_OP),
        span("metrics.det_l", 1.0, 3.0, op="0/0"),
        span("geometry.discrete_frechet", 1.5, 2.5, parent=1, op="0/0"),
        span("metrics.det_l", 4.0, 8.0, op="0/1"),
        span("geometry.discrete_frechet", 4.0, 5.0, parent=3, op="0/1"),
        span("geometry.discrete_frechet", 5.0, 6.0, parent=3, op="0/1"),
        span("metrics.det_l", 9.0, 10.0, op="warm"),  # not a timed op
    ]
    out = spans.summarize(tracer, {"0/0": 2.0, "0/1": 4.0})
    assert out["metrics.det_l.s"]["value"] == pytest.approx(3.0)
    assert out["metrics.det_l.self_s"]["value"] == pytest.approx(1.5)
    assert out["metrics.det_l.calls"]["value"] == pytest.approx(1.0)
    assert out["geometry.discrete_frechet.calls"]["value"] == pytest.approx(1.5)
    assert out["weights.init_model_weights.s"]["value"] == pytest.approx(0.5)
    assert out["weights.init_model_weights.calls"]["value"] == pytest.approx(1.0)
    assert out["trace.self_cover"]["value"] == pytest.approx(1.0)
    assert out["trace.ops"]["value"] == 2


@pytest.fixture
def fake_package():
    """A package with geometry.discrete_frechet imported by name into metrics."""
    pkg = types.ModuleType("fakepkg")
    geometry = types.ModuleType("fakepkg.geometry")
    metrics = types.ModuleType("fakepkg.metrics")

    def discrete_frechet(a, b):
        return abs(a - b)

    def det_l(preds, scores, gts, thresholds=(1.0,)):
        return sum(metrics.discrete_frechet(p, g) for p in preds for g in gts)

    geometry.discrete_frechet = discrete_frechet
    metrics.discrete_frechet = discrete_frechet
    metrics.det_l = det_l
    mods = {"fakepkg": pkg, "fakepkg.geometry": geometry, "fakepkg.metrics": metrics}
    sys.modules.update(mods)
    yield metrics, geometry
    for name in mods:
        del sys.modules[name]


def test_wrapping_records_nested_spans_and_tolerates_missing_functions(fake_package):
    metrics, geometry = fake_package
    tracer = spans.Tracer()
    tracer.install("fakepkg")
    assert set(tracer.installed) == {"metrics.det_l", "geometry.discrete_frechet"}
    assert "pipeline.run_pipeline" in tracer.missing
    # both the home module and the importing module now hold the wrapper
    assert metrics.discrete_frechet is geometry.discrete_frechet
    tracer.op = "0/0"
    assert metrics.det_l([1.0, 2.0], None, [4.0]) == 5.0
    names = [s.name for s in tracer.spans]
    assert names == ["metrics.det_l", "geometry.discrete_frechet", "geometry.discrete_frechet"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.counters["0/0"]["metrics.frechet_pairs"] == 2
    out = spans.summarize(tracer, {"0/0": 1.0})
    assert "pipeline.run_pipeline.s" not in out
    assert out["metrics.frechet_pairs"]["value"] == 2


def test_a_counter_that_no_longer_fits_is_dropped_not_raised(fake_package):
    metrics, _ = fake_package

    def det_l(predictions, scores, ground_truth):  # parameters renamed
        return len(predictions) * len(ground_truth)

    metrics.det_l = det_l
    tracer = spans.Tracer()
    tracer.install("fakepkg")
    tracer.op = "0/0"
    assert metrics.det_l([1.0, 2.0], None, [3.0]) == 2
    assert "KeyError" in tracer.counter_errors["metrics.det_l"]
    out = spans.summarize(tracer, {"0/0": 1.0})
    assert out["metrics.det_l.calls"]["value"] == 1
    assert "metrics.frechet_pairs" not in out


def test_mask_fallback_counts_a_fully_below_threshold_row():
    logits = np.array([
        [[-3.0, -1.0], [-2.0, -0.5]],  # every cell below probability 0.5
        [[-3.0, 0.0], [-2.0, -0.5]],  # one cell exactly at 0.5
        [[4.0, 4.0], [4.0, 4.0]],
    ])
    out = spans.count_mask_fallbacks({"mask_logits": logits, "threshold": 0.5}, None)
    assert out == {"decoder.mask_fallback_rows": 1, "decoder.mask_rows": 3}


def _readout(axis, existence, direction=1.0):
    existence = np.asarray(existence, dtype=np.float64)
    return MaskPointReadout(axis, np.linspace(1.0, 2.0, existence.size), existence, direction)


def test_fuse_fallback_counts_a_readout_with_fewer_than_two_valid_points():
    grid = GridSpec(h=4, w=10, x_min=0.0, y_min=0.0, resolution=1.0)
    detected = Polyline(np.column_stack([np.linspace(0, 9, 3), np.ones(3), np.zeros(3)]))
    sparse = _readout(AXIS_COLUMNS, [0.9] + [0.1] * 9)
    args = {"detected": detected, "readout": sparse}
    assert spans.count_fuse_fallback(args, fuse_points(detected, sparse, grid, 3)) == {
        "points_mask.fuse_fallbacks": 1
    }
    dense = _readout(AXIS_COLUMNS, [0.9] * 10)
    args = {"detected": detected, "readout": dense}
    assert spans.count_fuse_fallback(args, fuse_points(detected, dense, grid, 3)) == {
        "points_mask.fuse_fallbacks": 0
    }


def test_row_pick_counts_a_rows_readout_with_more_valid_points():
    col = _readout(AXIS_COLUMNS, [0.9] * 3 + [0.1] * 7)
    row = _readout(AXIS_ROWS, [0.9] * 4)
    picked = select_point_set(col, row)
    assert spans.count_row_pick({"col": col, "row": row}, picked) == {"points_mask.row_picks": 1}
    tie = _readout(AXIS_ROWS, [0.9] * 3 + [0.1])
    picked = select_point_set(col, tie)
    assert spans.count_row_pick({"col": col, "row": tie}, picked) == {"points_mask.row_picks": 0}


def test_bilinear_and_pred_byte_counters_use_sizes():
    out = spans.count_bilinear_out({}, np.zeros((10, 4, 25)))
    assert out == {"bev.bilinear_sample_batch.out_mb": pytest.approx(8e-3)}
    assert spans.count_pred_bytes({}, "é\n") == {"pipeline.pred_bytes": 3}


def test_frechet_pair_counters_multiply_set_sizes():
    assert spans.count_det_pairs({"preds": [0] * 4, "gts": [0] * 3}, None) == {
        "metrics.frechet_pairs": 12
    }
    assert spans.count_top_pairs({"pred_lines": [0] * 5, "gt_lines": [0] * 2}, None) == {
        "metrics.frechet_pairs": 10
    }
