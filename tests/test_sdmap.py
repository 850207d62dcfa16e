"""SD map rasterization and the BEV augmentation decoder."""

import tracemalloc

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
        out = sd_interact(b, e_s, e_p, zeroed_sd_weights(c, heads=2, points=2))
        assert np.array_equal(out.data, b.data)

    def test_shape_contract(self):
        cfg = PipelineConfig.desk(grid_h=6, grid_w=8)
        weights = init_model_weights(cfg)
        rng = np.random.default_rng(1)
        spec = GridSpec(h=6, w=8, x_min=0.0, y_min=0.0, resolution=1.0)
        b = BevGrid(rng.normal(size=(6, 8, cfg.channels)), spec)
        e_s = BevGrid(rng.normal(size=(6, 8, cfg.channels)), spec)
        e_p = sinusoidal_pe_2d(spec, cfg.channels)
        out = sd_interact(b, e_s, e_p, weights.sd)
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

        out = sd_interact(b, e_s, e_p, w)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        spec = small_spec(2, 2)
        b = BevGrid(rng.normal(size=(2, 2, 4)), spec)
        e_s = BevGrid(rng.normal(size=(2, 2, 8)), spec)
        e_p = BevGrid(rng.normal(size=(2, 2, 8)), spec)
        with pytest.raises(ValueError):
            sd_interact(b, e_s, e_p, zeroed_sd_weights(4, 1, 1))

    def test_each_layer_output_is_scanned_once(self, monkeypatch):
        # the SD grid e_s + e_p and each layer's output are checked once; the
        # input grid is checked already and is not scanned again
        c, layers = 8, 3
        cfg = PipelineConfig.desk(grid_h=6, grid_w=5, channels=c, sd=True, sd_layers=layers)
        weights = init_model_weights(cfg, seed=3)
        rng = np.random.default_rng(5)
        spec = small_spec(6, 5)
        b = BevGrid(rng.normal(size=(6, 5, c)), spec)
        e_s = BevGrid(rng.normal(size=(6, 5, c)), spec)
        e_p = sinusoidal_pe_2d(spec, c)
        isfinite = np.isfinite
        grid_scans = []

        def counting_isfinite(x, *args, **kwargs):
            if np.shape(x) in ((6, 5, c), (30, c)):
                grid_scans.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        out = sd_interact(b, e_s, e_p, weights.sd)
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
        e_p = sinusoidal_pe_2d(spec, c)
        with np.errstate(over="ignore", invalid="ignore"):
            one = sd_interact(b, e_s, e_p, SdInteractWeights(w.layers[:1]))
            assert np.isfinite(one.data).all()
            with pytest.raises(NonFiniteError, match="^sd_interact layer 1 produced non-finite"):
                sd_interact(b, e_s, e_p, w)

    def test_no_layers_return_the_input_features(self):
        rng = np.random.default_rng(8)
        spec = small_spec(3, 4)
        b = BevGrid(rng.normal(size=(3, 4, 4)), spec)
        e_s = BevGrid(rng.normal(size=(3, 4, 4)), spec)
        out = sd_interact(b, e_s, sinusoidal_pe_2d(spec, 4), SdInteractWeights([]))
        assert np.array_equal(out.data, b.data)

    @pytest.mark.parametrize("row_block", [7, 500, 1200, 5000])
    def test_row_blocks_give_the_same_features(self, monkeypatch, row_block):
        # 1200 cells: 172 blocks of 6 or 7 cells and 3 of 400 (below about
        # 40 cells OpenBLAS switches kernels), the others make one block
        cfg = PipelineConfig.desk(grid_h=30, grid_w=40, sd=True)
        weights = init_model_weights(cfg, seed=2)
        rng = np.random.default_rng(4)
        spec = GridSpec(h=30, w=40, x_min=0.0, y_min=0.0, resolution=1.0)
        b = BevGrid(rng.normal(size=(30, 40, cfg.channels)), spec)
        e_s = BevGrid(rng.normal(size=(30, 40, cfg.channels)), spec)
        e_p = sinusoidal_pe_2d(spec, cfg.channels)
        assert sdmap.ROW_BLOCK >= 1200
        whole = sd_interact(b, e_s, e_p, weights.sd).data
        monkeypatch.setattr(sdmap, "ROW_BLOCK", row_block)
        out = sd_interact(b, e_s, e_p, weights.sd).data
        assert np.allclose(out, whole, rtol=0, atol=1e-12)
        if row_block >= 40:
            # OpenBLAS multiplies a matrix of fewer rows than about 40 with
            # another kernel, which can round a row differently
            assert np.array_equal(out, whole)


def test_a_grid_one_cell_past_a_block_gives_the_one_block_features(monkeypatch):
    # 2049 cells make two blocks of 1025 and 1024 cells, not 2048 and a
    # 1-cell remainder that OpenBLAS would multiply with another kernel
    cfg = PipelineConfig.desk(sd=True, sd_layers=3, grid_h=3, grid_w=683)
    weights = init_model_weights(cfg, seed=2)
    rng = np.random.default_rng(5)
    spec = GridSpec(h=3, w=683, x_min=0.0, y_min=0.0, resolution=1.0)
    b = BevGrid(rng.normal(size=(3, 683, cfg.channels)), spec)
    e_s = BevGrid(rng.normal(size=(3, 683, cfg.channels)), spec)
    e_p = sinusoidal_pe_2d(spec, cfg.channels)
    assert sdmap.ROW_BLOCK == 2048
    blocked = sd_interact(b, e_s, e_p, weights.sd).data
    monkeypatch.setattr(sdmap, "ROW_BLOCK", 2049)
    assert np.array_equal(blocked, sd_interact(b, e_s, e_p, weights.sd).data)


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
