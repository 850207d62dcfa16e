"""SD map rasterization and the BEV augmentation decoder."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lanetopo import sdmap
from lanetopo.bev import (
    BevGrid,
    GridSpec,
    LayerNormWeights,
    MlpWeights,
    NonFiniteError,
    sinusoidal_pe_2d,
)
from lanetopo.geometry import Polyline
from lanetopo.sdmap import (
    SdMapInstance,
    rasterize_sdmap,
    sd_interact,
    supercover_cells,
)
from lanetopo.weights import (
    DeformableWeights,
    SdInteractWeights,
    SdLayerWeights,
    init_model_weights,
)
from lanetopo.config import N_SEMANTIC_TYPES, PipelineConfig
from lanetopo.pipeline import sd_features
from lanetopo.scene import render_bev_features, synth_scene


SRC = Path(__file__).resolve().parents[1] / "src"


def small_spec(h=8, w=12) -> GridSpec:
    return GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)


def table_for(c=4, seed=0) -> np.ndarray:
    """A (N_SEMANTIC_TYPES + 1, c) table: the default row, then one per type."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N_SEMANTIC_TYPES + 1, c))


class TestRasterize:
    def test_empty_instances_all_default(self):
        spec = small_spec()
        table = table_for()
        grid = rasterize_sdmap([], spec, table)
        assert np.allclose(grid.data, table[0])

    def test_axis_aligned_line_matches_distance_oracle(self):
        spec = small_spec()
        table = table_for()
        # segment through cell centers of row 3, columns 2..9
        line = Polyline(np.array([[2.5, 3.5, 0.0], [9.5, 3.5, 0.0]]))
        grid = rasterize_sdmap([SdMapInstance(line, 2)], spec, table)
        a, b = np.array([2.5, 3.5]), np.array([9.5, 3.5])
        for r in range(spec.h):
            for c in range(spec.w):
                center = np.array([c + 0.5, r + 0.5])
                t = np.clip(np.dot(center - a, b - a) / np.dot(b - a, b - a), 0, 1)
                dist = np.linalg.norm(center - (a + t * (b - a)))
                expected = table[2] if dist <= 0.5 else table[0]
                assert np.array_equal(grid.data[r, c], expected), (r, c)

    def test_crossing_lines_lowest_index_wins(self):
        spec = small_spec()
        table = table_for()
        horiz = Polyline(np.array([[1.5, 4.5, 0.0], [10.5, 4.5, 0.0]]))
        vert = Polyline(np.array([[6.5, 0.5, 0.0], [6.5, 7.5, 0.0]]))
        grid = rasterize_sdmap(
            [SdMapInstance(horiz, 1), SdMapInstance(vert, 3)], spec, table
        )
        assert np.array_equal(grid.data[4, 6], table[1])
        assert np.array_equal(grid.data[2, 6], table[3])

    def test_outside_instances_contribute_nothing(self):
        spec = small_spec()
        table = table_for()
        outside = Polyline(np.array([[-30.0, -30.0, 0.0], [-20.0, -30.0, 0.0]]))
        grid = rasterize_sdmap([SdMapInstance(outside, 1)], spec, table)
        assert np.allclose(grid.data, table[0])

    def test_translation_consistency(self):
        spec = small_spec(10, 16)
        line = Polyline(np.array([[2.3, 3.1, 0.0], [11.2, 6.7, 0.0]]))
        shifted = Polyline(line.pts + np.array([spec.resolution, 0.0, 0.0]))
        base = {tuple(rc) for rc in supercover_cells(line, spec)}
        moved = {tuple(rc) for rc in supercover_cells(shifted, spec)}
        expected = {(r, c + 1) for r, c in base if c + 1 < spec.w}
        assert {rc for rc in moved if rc[1] > 0} >= expected
        assert expected == {rc for rc in moved if 0 < rc[1] < spec.w}

    def test_unknown_type_rejected(self):
        line = Polyline(np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 0.0]]))
        for bad in (0, N_SEMANTIC_TYPES + 1, 9):
            with pytest.raises(ValueError, match="semantic type"):
                SdMapInstance(line, bad)


def summed(e_s: BevGrid, e_p: BevGrid) -> BevGrid:
    """The SD grid that ``sd_features`` passes on: a semantic grid plus a
    positional one."""
    return BevGrid(e_s.data + e_p.data, e_s.spec)


def zeroed_sd_weights(c: int, heads: int, points: int, layers: int = 1) -> SdInteractWeights:
    def deform():
        return DeformableWeights(
            w_offset=np.zeros((heads, 2 * points, c)),
            b_offset=np.zeros((heads, 2 * points)),
            w_attn=np.zeros((heads, points, c)),
            b_attn=np.zeros((heads, points)),
            w_out=np.zeros((c, c)),
            b_out=np.zeros(c),
        )

    return SdInteractWeights(
        layers=[
            SdLayerWeights(
                self_ln=LayerNormWeights.identity(c),
                self_deform=deform(),
                cross_ln=LayerNormWeights.identity(c),
                cross_deform=deform(),
                ffn_ln=LayerNormWeights.identity(c),
                ffn=MlpWeights(
                    [(np.zeros((c, c)), np.zeros(c), "relu"), (np.zeros((c, c)), np.zeros(c), "none")]
                ),
            )
            for _ in range(layers)
        ]
    )


class TestSdInteract:
    def test_zero_projections_identity(self):
        rng = np.random.default_rng(0)
        spec = small_spec(4, 6)
        c = 4
        b = BevGrid(rng.normal(size=(4, 6, c)), spec)
        e_s = BevGrid(rng.normal(size=(4, 6, c)), spec)
        e_p = sinusoidal_pe_2d(spec, c)
        out = sd_interact(b, summed(e_s, e_p), zeroed_sd_weights(c, heads=2, points=2))
        assert np.array_equal(out.data, b.data)

    def test_shape_contract(self):
        cfg = PipelineConfig.desk()
        weights = init_model_weights(cfg)
        rng = np.random.default_rng(1)
        spec = GridSpec(h=6, w=8, x_min=0.0, y_min=0.0, resolution=1.0)
        b = BevGrid(rng.normal(size=(6, 8, cfg.channels)), spec)
        e_s = BevGrid(rng.normal(size=(6, 8, cfg.channels)), spec)
        e_p = sinusoidal_pe_2d(spec, cfg.channels)
        out = sd_interact(b, summed(e_s, e_p), weights.sd)
        assert out.data.shape == b.data.shape
        assert np.all(np.isfinite(out.data))

    def test_single_layer_single_head_matches_hand_computation(self):
        """Scripted step-by-step forward pass with scalar loops as the oracle."""
        rng = np.random.default_rng(2)
        spec = small_spec(2, 2)
        c, points = 4, 2
        b = BevGrid(rng.normal(size=(2, 2, c)), spec)
        e_s = BevGrid(rng.normal(size=(2, 2, c)), spec)
        e_p = BevGrid(rng.normal(size=(2, 2, c)), spec)
        w = SdInteractWeights(
            layers=[
                SdLayerWeights(
                    self_ln=LayerNormWeights(rng.uniform(0.5, 1.5, c), rng.normal(size=c)),
                    self_deform=DeformableWeights(
                        w_offset=rng.normal(size=(1, 2 * points, c)) * 0.3,
                        b_offset=rng.normal(size=(1, 2 * points)) * 0.3,
                        w_attn=rng.normal(size=(1, points, c)),
                        b_attn=rng.normal(size=(1, points)),
                        w_out=rng.normal(size=(c, c)),
                        b_out=rng.normal(size=c),
                    ),
                    cross_ln=LayerNormWeights(rng.uniform(0.5, 1.5, c), rng.normal(size=c)),
                    cross_deform=DeformableWeights(
                        w_offset=rng.normal(size=(1, 2 * points, c)) * 0.3,
                        b_offset=rng.normal(size=(1, 2 * points)) * 0.3,
                        w_attn=rng.normal(size=(1, points, c)),
                        b_attn=rng.normal(size=(1, points)),
                        w_out=rng.normal(size=(c, c)),
                        b_out=rng.normal(size=c),
                    ),
                    ffn_ln=LayerNormWeights(rng.uniform(0.5, 1.5, c), rng.normal(size=c)),
                    ffn=MlpWeights(
                        [
                            (rng.normal(size=(6, c)), rng.normal(size=6), "relu"),
                            (rng.normal(size=(c, 6)), rng.normal(size=c), "none"),
                        ]
                    ),
                )
            ]
        )

        def hand_ln(x, ln):
            mean = x.mean()
            var = ((x - mean) ** 2).mean()
            return (x - mean) / np.sqrt(var + 1e-5) * ln.scale + ln.shift

        def hand_bilinear(grid, r, col):
            h_, w_, _ = grid.shape
            if r < 0 or r > h_ - 1 or col < 0 or col > w_ - 1:
                return np.zeros(grid.shape[2])
            r0, c0 = int(np.floor(r)), int(np.floor(col))
            r1, c1 = min(r0 + 1, h_ - 1), min(c0 + 1, w_ - 1)
            fr, fc = r - r0, col - c0
            return (
                (1 - fr) * (1 - fc) * grid[r0, c0]
                + (1 - fr) * fc * grid[r0, c1]
                + fr * (1 - fc) * grid[r1, c0]
                + fr * fc * grid[r1, c1]
            )

        def hand_deform(query, value, ref, dw):
            # single head, full channel slice
            off = dw.w_offset[0] @ query + dw.b_offset[0]
            logits = dw.w_attn[0] @ query + dw.b_attn[0]
            e = np.exp(logits - logits.max())
            att = e / e.sum()
            acc = np.zeros(c)
            for p in range(points):
                loc = ref + off[2 * p : 2 * p + 2]
                acc += att[p] * hand_bilinear(value, loc[0], loc[1])
            return dw.w_out @ acc + dw.b_out

        sd = e_s.data + e_p.data
        layer = w.layers[0]
        expected = np.empty((2, 2, c))
        state = b.data.copy()
        # self-attention sublayer
        after_self = np.empty_like(state)
        for r in range(2):
            for col in range(2):
                q = hand_ln(state[r, col], layer.self_ln)
                after_self[r, col] = state[r, col] + hand_deform(
                    q, state, np.array([float(r), float(col)]), layer.self_deform
                )
        # cross-attention sublayer
        after_cross = np.empty_like(state)
        for r in range(2):
            for col in range(2):
                q = hand_ln(after_self[r, col], layer.cross_ln)
                after_cross[r, col] = after_self[r, col] + hand_deform(
                    q, sd, np.array([float(r), float(col)]), layer.cross_deform
                )
        # feed-forward sublayer
        for r in range(2):
            for col in range(2):
                x = hand_ln(after_cross[r, col], layer.ffn_ln)
                (w1, b1, _), (w2, b2, _) = layer.ffn.layers
                expected[r, col] = after_cross[r, col] + w2 @ np.maximum(w1 @ x + b1, 0) + b2

        out = sd_interact(b, summed(e_s, e_p), w)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        spec = small_spec(2, 2)
        b = BevGrid(rng.normal(size=(2, 2, 4)), spec)
        e_s = BevGrid(rng.normal(size=(2, 2, 8)), spec)
        e_p = BevGrid(rng.normal(size=(2, 2, 8)), spec)
        with pytest.raises(ValueError):
            sd_interact(b, summed(e_s, e_p), zeroed_sd_weights(4, 1, 1))

    def test_a_non_finite_sd_grid_is_refused(self):
        rng = np.random.default_rng(3)
        spec = small_spec(2, 3)
        b = BevGrid(rng.normal(size=(2, 3, 4)), spec)
        sd_grid = summed(BevGrid(rng.normal(size=(2, 3, 4)), spec), sinusoidal_pe_2d(spec, 4))
        # past the grid's own check, as an overflowing in-place sum would be
        sd_grid.data[1, 2, 0] = np.inf
        with pytest.raises(NonFiniteError, match="^sd_interact got a non-finite SD grid$"):
            sd_interact(b, sd_grid, zeroed_sd_weights(4, 1, 1))

    def test_sd_features_adds_the_position_encoding_into_the_semantic_grid(self):
        cfg = PipelineConfig.desk(sd=True)
        weights = init_model_weights(cfg, seed=5)
        table = weights.semantic_table.copy()
        scene = synth_scene(5)
        b = render_bev_features(scene, cfg)
        e_s = rasterize_sdmap(scene.sd_instances, b.spec, weights.semantic_table)
        expected = sd_interact(b, summed(e_s, sinusoidal_pe_2d(b.spec, cfg.channels)), weights.sd)
        assert np.array_equal(sd_features(b, scene, weights).data, expected.data)
        assert np.array_equal(weights.semantic_table, table)

    def test_each_layer_output_is_scanned_once(self, monkeypatch):
        # the SD grid and each layer's output are checked once; the input
        # grid is checked already and is not scanned again
        c, layers = 8, 3
        cfg = PipelineConfig.desk(channels=c, sd=True, sd_layers=layers)
        weights = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(5)
        spec = small_spec(6, 5)
        b = BevGrid(rng.normal(size=(6, 5, c)), spec)
        e_s = BevGrid(rng.normal(size=(6, 5, c)), spec)
        sd_grid = summed(e_s, sinusoidal_pe_2d(spec, c))
        isfinite = np.isfinite
        grid_scans = []

        def counting_isfinite(x, *args, **kwargs):
            if np.shape(x) in ((6, 5, c), (30, c)):
                grid_scans.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        out = sd_interact(b, sd_grid, weights.sd)
        monkeypatch.undo()
        assert len(grid_scans) == 1 + layers
        assert np.isfinite(out.data).all()

    def test_a_later_layer_that_overflows_is_named(self):
        # each layer adds 1e308 through its FFN bias: layer 0 stays finite,
        # layer 1 overflows
        c = 4
        w = zeroed_sd_weights(c, heads=1, points=1, layers=2)
        for layer in w.layers:
            (w1, b1, a1), (w2, _, a2) = layer.ffn.layers
            layer.ffn = MlpWeights([(w1, b1, a1), (w2, np.full(c, 1e308), a2)])
        rng = np.random.default_rng(6)
        spec = small_spec(3, 4)
        b = BevGrid(rng.normal(size=(3, 4, c)), spec)
        e_s = BevGrid(rng.normal(size=(3, 4, c)), spec)
        sd_grid = summed(e_s, sinusoidal_pe_2d(spec, c))
        with np.errstate(over="ignore", invalid="ignore"):
            one = sd_interact(b, sd_grid, SdInteractWeights(w.layers[:1]))
            assert np.isfinite(one.data).all()
            with pytest.raises(NonFiniteError, match="^sd_interact layer 1 produced non-finite"):
                sd_interact(b, sd_grid, w)

    def test_no_layers_return_the_input_features(self):
        rng = np.random.default_rng(8)
        spec = small_spec(3, 4)
        b = BevGrid(rng.normal(size=(3, 4, 4)), spec)
        e_s = BevGrid(rng.normal(size=(3, 4, 4)), spec)
        out = sd_interact(b, summed(e_s, sinusoidal_pe_2d(spec, 4)), SdInteractWeights([]))
        assert np.array_equal(out.data, b.data)

    @pytest.mark.parametrize("row_block", [7, 500, 1200, 5000])
    def test_row_blocks_give_the_same_features(self, monkeypatch, row_block):
        # 2,500 cells: 4 blocks of 625 at the default 2048, against 716 of 3
        # or 4 cells (below about 40 cells OpenBLAS switches kernels), 10 of
        # 250, 6 of 416 or 417 and 2 of 1,250
        cfg = PipelineConfig.desk(sd=True)
        weights = init_model_weights(cfg, seed=2)
        rng = np.random.default_rng(4)
        spec = GridSpec(h=50, w=50, x_min=0.0, y_min=0.0, resolution=1.0)
        b = BevGrid(rng.normal(size=(50, 50, cfg.channels)), spec)
        e_s = BevGrid(rng.normal(size=(50, 50, cfg.channels)), spec)
        sd_grid = summed(e_s, sinusoidal_pe_2d(spec, cfg.channels))
        assert sdmap.ROW_BLOCK == 2048
        whole = sd_interact(b, sd_grid, weights.sd).data
        monkeypatch.setattr(sdmap, "ROW_BLOCK", row_block)
        out = sd_interact(b, sd_grid, weights.sd).data
        assert np.allclose(out, whole, rtol=0, atol=1e-12)
        if row_block >= 40:
            # OpenBLAS multiplies a matrix of fewer rows than about 40 with
            # another kernel, which can round a row differently
            assert np.array_equal(out, whole)


def test_a_grid_one_cell_past_a_block_gives_the_one_block_features(monkeypatch):
    # 2049 cells make four blocks of 512 or 513 cells, and two of 1024 and
    # 1025 at a block of 2049, not 2048 and a 1-cell remainder that OpenBLAS
    # would multiply with another kernel
    cfg = PipelineConfig.desk(sd=True, sd_layers=3)
    weights = init_model_weights(cfg, seed=2)
    rng = np.random.default_rng(5)
    spec = GridSpec(h=3, w=683, x_min=0.0, y_min=0.0, resolution=1.0)
    b = BevGrid(rng.normal(size=(3, 683, cfg.channels)), spec)
    e_s = BevGrid(rng.normal(size=(3, 683, cfg.channels)), spec)
    sd_grid = summed(e_s, sinusoidal_pe_2d(spec, cfg.channels))
    assert sdmap.ROW_BLOCK == 2048
    blocked = sd_interact(b, sd_grid, weights.sd).data
    monkeypatch.setattr(sdmap, "ROW_BLOCK", 2049)
    assert np.array_equal(blocked, sd_interact(b, sd_grid, weights.sd).data)


def random_sd_inputs(cfg: PipelineConfig, h: int, w: int, seed: int):
    """A random h x w BEV grid of ``cfg``'s channels and the SD grid of a
    random semantic grid."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)
    shape = (h, w, cfg.channels)
    return (BevGrid(rng.normal(size=shape), spec),
            summed(BevGrid(rng.normal(size=shape), spec), sinusoidal_pe_2d(spec, cfg.channels)))


def run_inline(first, second):
    first()
    second()


@pytest.mark.parametrize("cfg, h, w", [
    # 5000 cells: 6 blocks of 833 or 834, three on each thread
    (PipelineConfig.desk(sd=True), 50, 100),
    # the benchmark's full-pair shape: 20 blocks of 1000 cells
    (PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64, sd=True), 100, 200),
    # 2049 cells: 4 blocks of 512 or 513
    (PipelineConfig.desk(sd=True, sd_layers=3), 3, 683),
    # 15 cells: blocks of 7 and 8, one on each thread
    (PipelineConfig.desk(sd=True, sd_layers=2), 3, 5),
], ids=["desk", "full-pair", "2049-cells", "15-cells"])
def test_the_two_thread_split_gives_the_inline_bits(monkeypatch, cfg, h, w):
    weights = init_model_weights(cfg, seed=4)
    b, sd_grid = random_sd_inputs(cfg, h, w, seed=9)
    threaded = sd_interact(b, sd_grid, weights.sd).data
    monkeypatch.setattr(sdmap, "_run_pair", run_inline)
    assert np.array_equal(threaded, sd_interact(b, sd_grid, weights.sd).data)


def test_the_caller_runs_the_even_blocks_and_one_helper_the_odd_ones(monkeypatch):
    cfg = PipelineConfig.desk(sd=True, sd_layers=3)
    weights = init_model_weights(cfg, seed=2)
    b, sd_grid = random_sd_inputs(cfg, 3, 683, seed=5)
    core = sdmap.deformable_attention_core
    calls = []

    def spy(q, grid, refs, w):
        row, col = refs[0]
        calls.append((threading.get_ident(), int(row) * b.w + int(col), len(refs)))
        return core(q, grid, refs, w)

    monkeypatch.setattr(sdmap, "deformable_attention_core", spy)
    sd_interact(b, sd_grid, weights.sd)
    # two attentions per block and layer
    assert len(calls) == 4 * 2 * 3
    blocks = sorted({(start, n) for _, start, n in calls})
    assert blocks == [(0, 512), (512, 512), (1024, 512), (1536, 513)]
    caller = threading.get_ident()
    helpers = {thread for thread, _, _ in calls} - {caller}
    assert len(helpers) == 1
    for thread, start, _ in calls:
        assert (thread == caller) == (start in (0, 1024)), (thread, start)


def test_an_overflow_on_the_helper_thread_keeps_sd_features_quiet():
    # the helper runs in the caller's context, so sd_features' errstate
    # reaches it: every block overflows, and none warns
    cfg = PipelineConfig.desk(sd=True)
    weights = init_model_weights(cfg, seed=3)
    layer = weights.sd.layers[0]
    layer.ffn = MlpWeights([(w * 1e200, bias * 1e200, act) for w, bias, act in layer.ffn.layers])
    scene = synth_scene(3)
    b = render_bev_features(scene, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^sd_interact layer 0 produced non-finite"):
            sd_features(b, scene, weights)


class HalfFailed(Exception):
    pass


def test_an_error_in_the_helpers_half_reaches_the_caller(monkeypatch):
    cfg = PipelineConfig.desk(sd=True)
    weights = init_model_weights(cfg, seed=2)
    b, sd_grid = random_sd_inputs(cfg, 50, 100, seed=1)
    caller = threading.get_ident()
    mlp = sdmap.mlp_forward

    def failing_on_the_helper(w, x):
        if threading.get_ident() != caller:
            raise HalfFailed("helper")
        return mlp(w, x)

    monkeypatch.setattr(sdmap, "mlp_forward", failing_on_the_helper)
    with pytest.raises(HalfFailed, match="helper"):
        sd_interact(b, sd_grid, weights.sd)


def test_an_error_in_the_callers_half_is_raised_after_the_helpers_half_ends():
    started = threading.Event()
    finished = []

    def caller_half():
        assert started.wait(30)
        raise HalfFailed("caller")

    def helper_half():
        started.set()
        time.sleep(0.2)
        finished.append(threading.get_ident())

    with pytest.raises(HalfFailed, match="caller"):
        sdmap._run_pair(caller_half, helper_half)
    assert len(finished) == 1 and finished[0] != threading.get_ident()


def test_callers_on_several_threads_share_the_helper_and_keep_their_bits(monkeypatch):
    # 480 cells in 16 blocks of 30; six callers queue their halves on one helper
    monkeypatch.setattr(sdmap, "ROW_BLOCK", 64)
    cfg = PipelineConfig.desk(sd=True, sd_layers=2)
    weights = init_model_weights(cfg, seed=6)
    inputs = [random_sd_inputs(cfg, 12, 40, seed) for seed in range(6)]
    with monkeypatch.context() as inline:
        inline.setattr(sdmap, "_run_pair", run_inline)
        expected = [sd_interact(*grids, weights.sd).data for grids in inputs]
    got = [[] for _ in inputs]

    def call(k):
        for _ in range(3):
            got[k].append(sd_interact(*inputs[k], weights.sd).data)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, outs in enumerate(got):
        assert len(outs) == 3 and all(np.array_equal(out, expected[k]) for out in outs), k


FORKED_RUN = """
import os, signal, sys, time
import numpy as np
from lanetopo.bev import BevGrid, GridSpec, sinusoidal_pe_2d
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import infer
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.sdmap import sd_interact
from lanetopo.weights import init_model_weights
cfg = PipelineConfig.desk(sd=True)
spec = GridSpec(h=4, w=6, x_min=0.0, y_min=0.0, resolution=1.0)
rng = np.random.default_rng(0)
grids = [BevGrid(rng.normal(size=(4, 6, cfg.channels)), spec) for _ in range(2)]
sd_grid = BevGrid(grids[1].data + sinusoidal_pe_2d(spec, cfg.channels).data, spec)
args = (grids[0], sd_grid, init_model_weights(cfg, 0).sd)
# the full-pair shape, whose decoder and mask heads split their rows
full_pair = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64)
model = (render_bev_features(synth_scene(0), full_pair), full_pair,
         init_model_weights(full_pair, 0))
before = sd_interact(*args).data
logits = infer(*model).mask_logits
pid = os.fork()
if pid == 0:
    same = (np.array_equal(sd_interact(*args).data, before)
            and np.array_equal(infer(*model).mask_logits, logits))
    os._exit(0 if same else 1)
deadline = time.monotonic() + 60
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        sys.exit("the forked child hung")
    time.sleep(0.05)
sys.exit(os.waitstatus_to_exitcode(done[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper():
    # the parent's helper thread is not copied into a forked child; the child
    # runs the SD layer and a decoder whose rows split, and must not hang
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FORKED_RUN], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_sd_features_memory_stays_bounded_at_full_pair_size():
    # the benchmark's full-pair size: the full 100 x 200 grid and 8-head SD
    # layers at 32 channels; a grid is 5 MB, and an unblocked layer peaked
    # at 58.6 MiB
    cfg = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64, sd=True)
    weights = init_model_weights(cfg)
    scene = synth_scene(0)
    b = render_bev_features(scene, cfg)
    tracemalloc.start()
    try:
        sd_features(b, scene, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
