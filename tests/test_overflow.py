"""Huge finite weights, one weight group at a time.

Each group of ``init_model_weights`` tensors is scaled by 1e150, 1e200 and
1e300 at the desk and full-pair shapes, with the SD map off and on. A run
either returns finite outputs or raises ``NonFiniteError`` naming the stage,
and numpy warns about nothing on the way, in the calling thread or the
helper thread.
"""

import functools
import warnings
from functools import partial

import numpy as np
import pytest

from lanetopo.bev import NonFiniteError
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import infer, run_pipeline, sd_features
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.weights import (
    init_model_weights,
    model_weights_from_tensors,
    model_weights_to_tensors,
)

SHAPES = {
    "desk": PipelineConfig.desk,
    # the full-pair benchmark's shape: 48 queries and 32 channels on 100 x 200
    "full-pair": partial(PipelineConfig, n_real=24, n_virtual=24, channels=32, ffn_dim=64),
}
GROUPS = ("decoder", "sd", "semantic_table", "mask_head", "topology")
SCALES = (1e150, 1e200, 1e300)


@functools.cache
def base_tensors(shape: str, sd: bool):
    return model_weights_to_tensors(init_model_weights(SHAPES[shape](sd=sd), 0))


def scaled_weights(shape: str, sd: bool, group: str, scale: float):
    """``init_model_weights(cfg, 0)`` of the shape's config with every tensor
    of ``group`` times ``scale``."""
    tensors, meta = base_tensors(shape, sd)
    return model_weights_from_tensors(
        {name: t * scale if name.split(".")[0] == group else t for name, t in tensors.items()},
        meta,
    )


def test_the_groups_cover_every_weight():
    tensors, _ = model_weights_to_tensors(init_model_weights(PipelineConfig.desk(), 0))
    assert {name.split(".")[0] for name in tensors} == set(GROUPS)


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"{s:.0e}")
@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("sd", [False, True], ids=["sd-off", "sd-on"])
@pytest.mark.parametrize("shape", SHAPES)
def test_huge_weights_give_finite_outputs_or_a_non_finite_error(shape, sd, group, scale):
    cfg = SHAPES[shape](sd=sd)
    weights = scaled_weights(shape, sd, group, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = run_pipeline(synth_scene(7), cfg, weights)
        except NonFiniteError:
            return
    outputs, report = result.outputs, result.report
    assert all(np.isfinite(p.points.pts).all() and np.isfinite(p.score)
               for p in outputs.predictions)
    assert np.isfinite(outputs.adjacency).all() and np.isfinite(outputs.mask_logits).all()
    assert np.isfinite([report.det_l, report.top_ll, report.ap_l]).all()


@pytest.mark.parametrize("sd", [False, True], ids=["sd-off", "sd-on"])
@pytest.mark.parametrize("shape", SHAPES)
def test_overflowing_mask_readouts_raise_in_fuse_and_on_a_read(shape, sd):
    # the mask logits reach about 1e301 and stay finite, but the existence
    # and direction heads overflow on both axes
    cfg = SHAPES[shape](sd=sd)
    weights = scaled_weights(shape, sd, "mask_head", 1e150)
    scene = synth_scene(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError) as raised:
            run_pipeline(scene, cfg, weights)
        assert str(raised.value) == "the columns mask readouts produced non-finite existence"
        b = render_bev_features(scene, cfg)
        outputs = infer(sd_features(b, scene, weights) if sd else b, cfg, weights)
        assert np.isfinite(outputs.mask_logits).all()
        for axis, readouts in (("columns", outputs.col_readouts), ("rows", outputs.row_readouts)):
            with pytest.raises(NonFiniteError, match=f"^the {axis} mask readouts produced "):
                readouts[0]
