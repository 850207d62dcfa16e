"""One live copy of each full-grid array.

The SD path and the decoder free each (h, w, c) grid and each (n, h, w) mask
stack once its last reader is done. At the full-pair shape with the SD map
on, the peak that ``tracemalloc`` sees inside ``sd_features`` and inside
``infer`` is bounded in units of one grid and of one (n, h*w) float64 stack;
weak references check that no stale array is alive where the next large one
is allocated.
"""

import gc
import tracemalloc
import weakref

from lanetopo import decoder, pipeline
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import infer, run_pipeline, sd_features
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.weights import init_model_weights

# the full-pair benchmark's shape: 48 queries and 32 channels on 100 x 200
FULL_PAIR = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64, sd=True)
GRID_BYTES = FULL_PAIR.grid.h * FULL_PAIR.grid.w * FULL_PAIR.channels * 8  # 5.1 MB
STACK_BYTES = FULL_PAIR.n_queries * FULL_PAIR.grid.h * FULL_PAIR.grid.w * 8  # 7.7 MB


def traced_peak(fn, *args):
    """``fn(*args)`` and the bytes it allocated at its peak, over what was
    allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def test_sd_features_and_infer_peaks_at_the_full_pair_shape():
    # holding the semantic grid, the position encoding and their sum apart
    # peaks at 6.7 grids, one SD grid at 4.7; keeping a layer's mask logits
    # through the next masked attention peaks at 2.15 stacks, freeing them
    # at 1.5
    weights = init_model_weights(FULL_PAIR, 0)
    scene = synth_scene(0)
    b = render_bev_features(scene, FULL_PAIR)
    # the first run loads scipy.sparse and scipy.special inside the trace
    infer(sd_features(b, scene, weights), FULL_PAIR, weights)
    grid, sd_peak = traced_peak(sd_features, b, scene, weights)
    _, infer_peak = traced_peak(infer, grid, FULL_PAIR, weights)
    assert sd_peak < 5.5 * GRID_BYTES, sd_peak / GRID_BYTES
    assert infer_peak < 1.8 * STACK_BYTES, infer_peak / STACK_BYTES


def test_run_pipeline_frees_the_raw_features_before_infer(monkeypatch):
    cfg = PipelineConfig.desk(sd=True)
    raw = []
    render, run_infer = pipeline.render_bev_features, pipeline.infer

    def rendering(scene, cfg):
        b = render(scene, cfg)
        raw.append(weakref.ref(b.data))
        return b

    def checking(b, cfg, weights):
        gc.collect()
        assert raw[0]() is None, "the raw BEV features are alive while infer runs"
        return run_infer(b, cfg, weights)

    monkeypatch.setattr(pipeline, "render_bev_features", rendering)
    monkeypatch.setattr(pipeline, "infer", checking)
    run_pipeline(synth_scene(7), cfg, init_model_weights(cfg, 0))
    assert len(raw) == 1


def test_a_layers_mask_logits_are_freed_before_the_next_masked_attention(monkeypatch):
    cfg = PipelineConfig.desk(layers=3)
    logits, attentions = [], []
    mask_logits, attention = decoder.instance_mask_logits, decoder.masked_cross_attention

    def recording(*args):
        out = mask_logits(*args)
        logits.append(weakref.ref(out[0]))
        return out

    def checking(q, b, m):
        gc.collect()
        attentions.append([ref() is None for ref in logits])
        return attention(q, b, m)

    monkeypatch.setattr(decoder, "instance_mask_logits", recording)
    monkeypatch.setattr(decoder, "masked_cross_attention", checking)
    weights = init_model_weights(cfg, 0)
    decoder.decoder_forward(render_bev_features(synth_scene(7), cfg), weights, cfg)
    assert attentions == [[], [True], [True, True]]
