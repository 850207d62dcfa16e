"""Mask readouts are computed only where they are read.

``infer`` computes none. ``fuse`` asks for the real rows in one batched call
per axis. A later read of ``col_readouts``/``row_readouts`` computes all n
rows once, and equals the heads run over every row bit for bit: the readouts
``infer`` used to compute. ``tests/test_determinism.py`` pins the full-size
real-row readouts, sd off and on, against the all-row ones.
"""

import numpy as np
import pytest

from lanetopo import pipeline
from lanetopo.config import PipelineConfig
from lanetopo.decoder import instance_mask_logits
from lanetopo.pipeline import LazyReadouts, ablation_grid, fuse, infer
from lanetopo.points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    predict_direction,
    predict_existence,
    sample_mask_points,
)
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.weights import init_model_weights

CONFIGS = {
    "desk": PipelineConfig.desk,
    # the full-pair benchmark's shape: 48 queries and 32 channels on 100 x 200
    "full-pair": lambda **kw: PipelineConfig(
        n_real=24, n_virtual=24, channels=32, ffn_dim=64, **kw
    ),
}


@pytest.fixture(scope="module", params=list(CONFIGS))
def model(request):
    cfg = CONFIGS[request.param]()
    weights = init_model_weights(cfg)
    return cfg, weights, render_bev_features(synth_scene(7), cfg)


@pytest.fixture
def calls(monkeypatch):
    """(axis, mask logits) of every call of each readout head that the
    pipeline makes."""
    seen = {"coords": [], "existence": []}

    def recording(name, fn):
        def wrapper(m, *args):
            seen[name].append((args[-1], m))
            return fn(m, *args)
        return wrapper

    monkeypatch.setattr(pipeline, "sample_mask_points", recording("coords", sample_mask_points))
    monkeypatch.setattr(pipeline, "predict_existence", recording("existence", predict_existence))
    return seen


def all_row_readouts(out, b, weights, cfg, axis):
    """Coordinates, existence and direction of every row, each head run once
    over all n rows."""
    q = np.stack([p.query for p in out.predictions])
    pts = np.stack([p.points.pts for p in out.predictions])
    logits, q_prime = instance_mask_logits(q, pts, b, weights, cfg.pgm)
    mh = weights.mask_head
    exist, direction = (mh.exist_col, mh.dir_col) if axis == AXIS_COLUMNS else (
        mh.exist_row, mh.dir_row
    )
    return (
        sample_mask_points(logits, axis),
        predict_existence(logits, exist, axis),
        predict_direction(q_prime, direction),
    )


def test_infer_computes_no_readout(model, calls):
    cfg, weights, b = model
    out = infer(b, cfg, weights)
    assert len(out.col_readouts) == len(out.row_readouts) == cfg.n_queries
    assert isinstance(out.col_readouts, LazyReadouts)
    assert calls == {"coords": [], "existence": []}


def test_fuse_reads_the_real_rows_in_one_call_per_axis(model, calls):
    cfg, weights, b = model
    out = infer(b, cfg, weights)
    fused = fuse(out)
    for name in ("coords", "existence"):
        assert [axis for axis, _ in calls[name]] == [AXIS_COLUMNS, AXIS_ROWS], name
        for _, m in calls[name]:
            assert np.array_equal(m, out.mask_logits[: cfg.n_real]), name
            # a view of the kept logits, not a copy of the real rows
            assert np.shares_memory(m, out.mask_logits), name
    virtual = zip(out.predictions[cfg.n_real:], fused.predictions[cfg.n_real:])
    assert all(p is q for p, q in virtual)


def test_a_later_read_equals_the_all_row_heads(model, calls):
    cfg, weights, b = model
    out = infer(b, cfg, weights)
    fuse(out)
    for name in calls:
        calls[name].clear()
    for axis, seq in ((AXIS_COLUMNS, out.col_readouts), (AXIS_ROWS, out.row_readouts)):
        coords, existence, direction = all_row_readouts(out, b, weights, cfg, axis)
        assert all(r.axis == axis for r in seq)
        assert np.array_equal(np.stack([r.coords for r in seq]), coords)
        assert np.array_equal(np.stack([r.existence for r in seq]), existence)
        assert np.array_equal([r.direction for r in seq], direction)
    # one call per axis over all n rows; later reads are served from it
    [r.coords for r in out.col_readouts]
    for name in ("coords", "existence"):
        assert [(axis, len(m)) for axis, m in calls[name]] == [
            (AXIS_COLUMNS, cfg.n_queries), (AXIS_ROWS, cfg.n_queries)
        ], name


def test_the_ablation_grid_reads_only_the_fused_real_rows(calls):
    cfg = PipelineConfig.desk()
    ablation_grid(synth_scene(7), cfg, init_model_weights(cfg))
    # infer runs with pgm on twice (sd off and on), and pmf fuses each once
    for name in ("coords", "existence"):
        assert [(axis, len(m)) for axis, m in calls[name]] == [
            (AXIS_COLUMNS, cfg.n_real), (AXIS_ROWS, cfg.n_real)
        ] * 2, name
