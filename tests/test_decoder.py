"""Decoder attention mechanisms and the full forward pass."""

import numpy as np
import pytest

from lanetopo import decoder
from lanetopo.bev import (
    BevGrid,
    GridSpec,
    LayerNormWeights,
    NonFiniteError,
    bilinear_sample_batch,
    layer_norm,
    mlp_forward,
    sigmoid,
    softmax,
)
from lanetopo.config import Z_MAX, Z_MIN, PipelineConfig
from lanetopo.decoder import (
    attention_mask_from_instance_masks,
    decoder_forward,
    deformable_attention_core,
    deformable_cross_attention,
    instance_mask_logits,
    masked_cross_attention,
    points_from_queries,
    rvs_self_attention,
    softmax_over_points,
)
from lanetopo.pipeline import infer, run_pipeline
from lanetopo.scene import synth_scene
from lanetopo.weights import (
    DeformableWeights,
    init_model_weights,
    model_weights_from_tensors,
    model_weights_to_tensors,
)


def unit_grid(rng, h=2, w=2, c=4) -> BevGrid:
    spec = GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)
    return BevGrid(rng.normal(size=(h, w, c)), spec)


def hand_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def self_attention(q: np.ndarray, ln: LayerNormWeights | None = None) -> np.ndarray:
    """Plain scaled-dot-product self-attention over all queries: the reference
    for the decoder's rvs-off call, which has no real-only rows."""
    scale = 1.0 / np.sqrt(q.shape[1])
    out = q + softmax(q @ q.T * scale, axis=-1) @ q
    if ln is not None:
        out = layer_norm(out, ln)
    return out


class TestMaskedCrossAttention:
    def test_zero_mask_equals_unmasked(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = unit_grid(rng)
            q = rng.normal(size=(3, g.c))
            m = np.ones((3, g.h * g.w), dtype=bool)
            ln = LayerNormWeights.identity(g.c)
            masked = layer_norm(masked_cross_attention(q, g, m), ln)
            cells = g.flat()
            plain = np.stack(
                [q[i] + hand_softmax(q[i] @ cells.T) @ cells for i in range(3)]
            )
            plain = layer_norm(plain, ln)
            assert np.max(np.abs(masked - plain)) < 1e-9

    def test_delta_mask_attends_single_cell(self):
        rng = np.random.default_rng(1)
        g = unit_grid(rng)
        q = rng.normal(size=(2, g.c))
        m = np.zeros((2, 4), dtype=bool)
        m[0, 3] = True
        m[1, 1] = True
        cells = g.flat()
        weights = decoder._kept_softmax(q @ cells.T, m)
        assert np.array_equal(weights[0], [0, 0, 0, 1])
        assert np.array_equal(weights[1], [0, 1, 0, 0])
        # the pre-residual attention output is exactly the chosen cell feature
        assert np.array_equal(weights[0] @ cells, cells[3])
        out = masked_cross_attention(q, g, m)
        assert np.max(np.abs(out - (q + cells[[3, 1]]))) < 1e-12

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(2)
        g = unit_grid(rng)
        q = rng.normal(size=(2, g.c))
        m = rng.random((2, 4)) >= 0.4
        m[:, 0] = True  # keep every row attendable
        ln = LayerNormWeights(rng.uniform(0.5, 1.5, g.c), rng.normal(size=g.c))
        out = layer_norm(masked_cross_attention(q, g, m), ln)
        cells = g.flat()
        for i in range(2):
            scores = q[i] @ cells.T + np.where(m[i], 0.0, -np.inf)
            attn = hand_softmax(scores) @ cells
            x = q[i] + attn
            mean, var = x.mean(), ((x - x.mean()) ** 2).mean()
            expected = (x - mean) / np.sqrt(var + 1e-5) * ln.scale + ln.shift
            assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        g = unit_grid(rng)
        with pytest.raises(ValueError):
            masked_cross_attention(rng.normal(size=(2, g.c)), g, np.ones((2, 3), dtype=bool))


class TestRvsSelfAttention:
    def test_no_virtual_equals_plain_self_attention(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(5, 8))
        ln = LayerNormWeights(rng.uniform(0.5, 1.5, 8), rng.normal(size=8))
        # no real-only rows: the decoder's rvs-off path
        out = layer_norm(np.concatenate(rvs_self_attention(q[:0], q)), ln)
        assert np.array_equal(out, self_attention(q, ln))
        # no virtual rows
        out_r, out_v = rvs_self_attention(q, q[:0])
        assert out_v.shape == (0, 8)
        assert np.array_equal(layer_norm(out_r, ln), self_attention(q, ln))

    def test_real_rows_put_zero_mass_on_virtual(self):
        rng = np.random.default_rng(5)
        qr = rng.normal(size=(4, 8))
        qv = rng.normal(size=(4, 8))
        out_r, _ = rvs_self_attention(qr, qv)
        # the real rows are those of attention over the real rows alone
        assert np.array_equal(out_r, rvs_self_attention(qr, qv[:0])[0])
        assert np.array_equal(out_r, self_attention(qr))
        # a virtual row's weights over all rows sum to 1: constant rows pass through
        const = np.full((4, 8), 3.0)
        assert np.max(np.abs(rvs_self_attention(const, const)[1] - 2.0 * const)) < 1e-12

    def test_real_outputs_bit_identical_under_virtual_change(self):
        rng = np.random.default_rng(6)
        qr = rng.normal(size=(4, 8))
        qv1 = rng.normal(size=(4, 8))
        qv2 = rng.normal(size=(4, 8)) * 100.0
        out_r1, _ = rvs_self_attention(qr, qv1)
        out_r2, _ = rvs_self_attention(qr, qv2)
        assert np.array_equal(out_r1, out_r2)

    def test_hand_block_computation(self):
        rng = np.random.default_rng(7)
        c = 4
        qr = rng.normal(size=(1, c))
        qv = rng.normal(size=(1, c))
        out_r, out_v = rvs_self_attention(qr, qv)
        scale = 1.0 / np.sqrt(c)
        # real row: only the real column is admissible
        expected_r = qr[0] + qr[0]
        wait = hand_softmax(np.array([qr[0] @ qr[0] * scale]))
        expected_r = qr[0] + wait[0] * qr[0]
        # virtual row attends to both
        sv = np.array([qv[0] @ qr[0], qv[0] @ qv[0]]) * scale
        wv = hand_softmax(sv)
        expected_v = qv[0] + wv[0] * qr[0] + wv[1] * qv[0]
        assert np.max(np.abs(out_r[0] - expected_r)) < 1e-12
        assert np.max(np.abs(out_v[0] - expected_v)) < 1e-12


def plain_deform_weights(c, heads, points, rng=None, zero_offsets=False):
    if rng is None:
        w_off = np.zeros((heads, 2 * points, c))
        w_att = np.zeros((heads, points, c))
        w_out = np.eye(c)
        return DeformableWeights(
            w_offset=w_off,
            b_offset=np.zeros((heads, 2 * points)),
            w_attn=w_att,
            b_attn=np.zeros((heads, points)),
            w_out=w_out,
            b_out=np.zeros(c),
        )
    return DeformableWeights(
        w_offset=np.zeros((heads, 2 * points, c)) if zero_offsets else rng.normal(size=(heads, 2 * points, c)) * 0.3,
        b_offset=np.zeros((heads, 2 * points)) if zero_offsets else rng.normal(size=(heads, 2 * points)) * 0.3,
        w_attn=rng.normal(size=(heads, points, c)),
        b_attn=rng.normal(size=(heads, points)),
        w_out=rng.normal(size=(c, c)),
        b_out=rng.normal(size=c),
    )


def four_corner_samples(g: BevGrid, locs: np.ndarray, heads: int) -> np.ndarray:
    """The per-head bilinear sampler as it was before the sparse product: one
    flat gather per corner from the grid viewed as (h * w * heads, c // heads)
    rows. ``locs`` (..., heads, points, 2) gives (..., heads, points, c // heads).
    """
    h, w = g.h, g.w
    head = np.arange(heads)[:, None]
    table = g.data.reshape(h * w * heads, g.c // heads)
    r, c = locs[..., 0], locs[..., 1]
    inside = (r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1)
    r = np.where(inside, r, 0.0)
    c = np.where(inside, c, 0.0)
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    fr, fc = r - r0, c - c0
    row0, row1 = np.clip(r0, 0, h - 1) * w, np.clip(r0 + 1, 0, h - 1) * w
    c0c, c1c = np.clip(c0, 0, w - 1), np.clip(c0 + 1, 0, w - 1)

    def corner(row, col):
        return np.take(table, (row + col) * heads + head, axis=0)

    out = (
        ((1 - fr) * (1 - fc))[..., None] * corner(row0, c0c)
        + ((1 - fr) * fc)[..., None] * corner(row0, c1c)
        + (fr * (1 - fc))[..., None] * corner(row1, c0c)
        + (fr * fc)[..., None] * corner(row1, c1c)
    )
    out[~inside] = 0.0
    return out


def four_corner_deformable_block(
    q: np.ndarray, b: BevGrid, refs: np.ndarray, w: DeformableWeights
) -> np.ndarray:
    """Reference deformable attention: two projections, four corner gathers of
    (n, heads, P, c // heads), and one einsum over the P points."""
    n, c = q.shape
    heads, points = w.heads, w.points
    offsets = np.einsum("hoc,nc->nho", w.w_offset, q) + w.b_offset[None]
    offsets = offsets.reshape(n, heads, points, 2)
    attn = softmax(np.einsum("hpc,nc->nhp", w.w_attn, q) + w.b_attn[None], axis=-1)
    samples = four_corner_samples(b, refs[:, None, None, :] + offsets, heads)
    head_out = np.einsum("nhp,nhpd->nhd", attn, samples)
    return head_out.reshape(n, c) @ w.w_out.T + w.b_out


class TestDeformableAttention:
    def test_zero_offsets_single_point_is_projected_sample(self):
        rng = np.random.default_rng(8)
        g = unit_grid(rng, h=3, w=4, c=4)
        q = rng.normal(size=(3, 4))
        w = plain_deform_weights(4, heads=2, points=1)
        w.w_out = rng.normal(size=(4, 4))
        w.b_out = rng.normal(size=4)
        refs = np.array([[0.5, 1.5], [2.0, 3.0], [1.2, 0.7]])
        out = deformable_attention_core(q, g, refs, w)
        for i in range(3):
            expected = w.w_out @ bilinear_sample_batch(g, refs[i]) + w.b_out
            assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_far_refs_zero_contribution(self):
        rng = np.random.default_rng(9)
        g = unit_grid(rng, h=3, w=3, c=4)
        q = rng.normal(size=(2, 4))
        w = plain_deform_weights(4, heads=2, points=2, rng=rng, zero_offsets=True)
        w.b_out = np.zeros(4)
        refs = np.array([[500.0, 500.0], [-100.0, 7.0]])
        out = deformable_attention_core(q, g, refs, w)
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_single_head_two_points_matches_scripted_oracle(self):
        rng = np.random.default_rng(10)
        c, points = 4, 2
        g = unit_grid(rng, h=3, w=4, c=c)
        q = rng.normal(size=(2, c))
        w = plain_deform_weights(c, heads=1, points=points, rng=rng)
        refs = rng.uniform(0, 2, size=(2, 2))
        out = deformable_attention_core(q, g, refs, w)
        for i in range(2):
            off = w.w_offset[0] @ q[i] + w.b_offset[0]
            att = hand_softmax(w.w_attn[0] @ q[i] + w.b_attn[0])
            acc = np.zeros(c)
            for p in range(points):
                acc += att[p] * bilinear_sample_batch(g, refs[i] + off[2 * p : 2 * p + 2])
            expected = w.w_out @ acc + w.b_out
            assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_post_norm_wrapper(self):
        rng = np.random.default_rng(11)
        g = unit_grid(rng)
        q = rng.normal(size=(2, 4))
        w = plain_deform_weights(4, heads=1, points=1, rng=rng)
        ln = LayerNormWeights(rng.uniform(0.5, 1.5, 4), rng.normal(size=4))
        refs = np.zeros((2, 2))
        out = layer_norm(deformable_cross_attention(q, g, refs, w), ln)
        expected = layer_norm(q + deformable_attention_core(q, g, refs, w), ln)
        assert np.array_equal(out, expected)

    def test_blocked_per_head_gather_equals_all_channel_reference(self):
        # more queries than the sparse sampler sees in one SD-layer block
        rng = np.random.default_rng(12)
        c, heads, points, n = 16, 8, 3, 4096 + 37
        g = BevGrid(rng.normal(size=(6, 9, c)), GridSpec(6, 9, 0.0, 0.0, 1.0))
        q = rng.normal(size=(n, c))
        w = plain_deform_weights(c, heads=heads, points=points, rng=rng)
        refs = rng.uniform(-0.5, [5.5, 8.5], size=(n, 2))
        # sample every channel at every head's points, then keep each head's slice
        offsets = (np.einsum("hoc,nc->nho", w.w_offset, q) + w.b_offset[None]).reshape(
            n, heads, points, 2
        )
        attn = softmax(np.einsum("hpc,nc->nhp", w.w_attn, q) + w.b_attn[None], axis=-1)
        samples = bilinear_sample_batch(g, refs[:, None, None, :] + offsets)
        idx = np.arange(heads)
        sliced = samples.reshape(n, heads, points, heads, c // heads)[:, idx, :, idx, :]
        head_out = np.einsum("hnp,hnpd->nhd", attn.transpose(1, 0, 2), sliced)
        all_channel = head_out.reshape(n, c) @ w.w_out.T + w.b_out
        # the sparse product sums the corners and points in another order than the gathers
        out = deformable_attention_core(q, g, refs, w)
        assert np.allclose(out, four_corner_deformable_block(q, g, refs, w), rtol=0, atol=1e-12)
        assert np.allclose(out, all_channel, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "h, w, heads, zero_offsets",
        [
            (6, 9, 4, False),
            (6, 9, 4, True),
            (5, 7, 1, False),
            (5, 7, 1, True),
            (1, 9, 2, True),
            (6, 1, 2, True),
            (1, 1, 4, False),
            (1, 1, 1, True),
        ],
    )
    def test_sparse_product_matches_the_four_corner_reference(self, h, w, heads, zero_offsets):
        rng = np.random.default_rng(13 + 10 * h + w + heads)
        c, points = 8, 3
        g = BevGrid(rng.normal(size=(h, w, c)), GridSpec(h, w, 0.0, 0.0, 1.0))
        wts = plain_deform_weights(c, heads=heads, points=points, rng=rng, zero_offsets=zero_offsets)
        last_r, last_c = h - 1.0, w - 1.0
        edges = [
            (last_r, last_c), (last_r, 0.0), (0.0, last_c), (last_r, 0.4 * last_c),
            (0.6 * last_r, last_c), (0.0, 0.0),
            (np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (-np.inf, 0.0), (0.0, np.inf),
            (1e300, -1e300), (-0.5, 0.0), (last_r + 0.5, last_c), (last_r, last_c + 1e-9),
        ]
        refs = np.concatenate([rng.uniform(-0.7, [h - 0.3, w - 0.3], size=(23, 2)), edges])
        q = rng.normal(size=(len(refs), c))
        out = deformable_attention_core(q, g, refs, wts)
        expected = four_corner_deformable_block(q, g, refs, wts)
        assert np.allclose(out, expected, rtol=0, atol=1e-12)
        if zero_offsets:
            # every point of a non-finite or out-of-grid reference samples zero
            outside = ~((refs >= 0) & (refs <= [last_r, last_c])).all(axis=1)
            assert np.array_equal(out[outside], np.broadcast_to(wts.b_out, (outside.sum(), c)))


class TestSoftmaxOverPoints:
    @pytest.mark.parametrize("points", range(1, 11))
    def test_equals_softmax_over_the_point_axis(self, points):
        rng = np.random.default_rng(40 + points)
        logits = rng.normal(0.0, 3.0, size=(257, points, 8))
        out = softmax_over_points(logits)
        assert out.shape == (257, 8, points)
        # the reference sums contiguous (n, heads, points) logits
        expected = softmax(np.ascontiguousarray(logits.transpose(0, 2, 1)), axis=-1)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("points", [1, 4, 9])
    def test_huge_logits_and_their_error_match_softmax(self, points):
        rng = np.random.default_rng(60 + points)
        logits = rng.choice([-1e300, 1e300], size=(64, points, 3))
        logits[0, :, 0] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            out = softmax_over_points(logits)
            expected = softmax(np.ascontiguousarray(logits.transpose(0, 2, 1)), axis=-1)
        assert np.array_equal(out, expected, equal_nan=True)
        logits[5, :, 1] = -np.inf
        # softmax's error, as a NonFiniteError that names the stage
        with pytest.raises(
            NonFiniteError, match="^softmax over a fully masked row in the deformable attention$"
        ):
            softmax_over_points(logits)

    @pytest.mark.parametrize("sd", [False, True], ids=["sd-off", "sd-on"])
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_deformable_logits_end_the_run_with_a_non_finite_error(self, scale, sd):
        # at the full-pair shape, decoder weights this large overflow every
        # deformable logit of a row to -inf; RuntimeWarnings are errors here
        cfg = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64, sd=sd)
        tensors, meta = model_weights_to_tensors(init_model_weights(cfg, 0))
        for name in tensors:
            if name.startswith("decoder."):
                tensors[name] = tensors[name] * scale
        weights = model_weights_from_tensors(tensors, meta)
        with pytest.raises(NonFiniteError, match="^softmax over a fully masked row in the "):
            run_pipeline(synth_scene(7), cfg, weights)


class TestAttentionMaskBuilder:
    def test_high_logits_all_attendable(self):
        m = attention_mask_from_instance_masks(np.full((2, 3, 3), 10.0))
        assert np.array_equal(m, np.ones((2, 9), dtype=bool))

    def test_low_logits_fall_back_to_full_attention(self):
        m = attention_mask_from_instance_masks(np.full((2, 3, 3), -10.0))
        assert np.array_equal(m, np.ones((2, 9), dtype=bool))

    def test_mixed_logits_match_per_cell_oracle(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(5, 5, 6))
        # cells where the sigmoid itself decides, and both zeros
        logits[0, 0, :4] = (-1e-12, -3.3e-16, -0.0, 0.0)
        logits[1, 2, :4] = (-3.3e-16, -1e-12, 0.0, -0.0)
        logits[3] = -np.abs(logits[3]) - 1e-300  # an all-negative row falls back
        m = attention_mask_from_instance_masks(logits)
        assert m[3].all()
        for i in range(5):
            row = m[i].reshape(5, 6)
            expected_open = sigmoid(logits[i]) >= 0.5
            if not expected_open.any():
                assert np.array_equal(row, np.ones((5, 6), dtype=bool))
            else:
                assert np.array_equal(row, expected_open)


class TestDecoderForward:
    def _setup(self, **overrides):
        base = dict(
            n_real=4, n_virtual=3, channels=16, layers=2, heads=2,
            ffn_dim=24, grid_h=8, grid_w=12,
        )
        base.update(overrides)
        cfg = PipelineConfig.desk(**base)
        weights = init_model_weights(cfg)
        rng = np.random.default_rng(13)
        b = BevGrid(rng.normal(size=(8, 12, 16)), cfg.grid)
        return cfg, weights, b

    def test_output_counts_and_ranges(self):
        cfg, weights, b = self._setup()
        q, pts, scores = decoder_forward(b, weights, cfg)
        assert q.shape == (cfg.n_queries, cfg.channels)
        assert pts.shape == (cfg.n_queries, cfg.k, 3)
        assert scores.shape == (cfg.n_queries,)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        grid = cfg.grid
        assert np.all(pts[..., 0] >= grid.x_min)
        assert np.all(pts[..., 0] <= grid.x_max)
        assert np.all(pts[..., 1] >= grid.y_min)
        assert np.all(pts[..., 1] <= grid.y_max)
        assert np.all((pts[..., 2] >= Z_MIN) & (pts[..., 2] <= Z_MAX))
        preds = infer(b, cfg, weights).predictions
        assert len(preds) == cfg.n_queries
        assert sum(p.is_real for p in preds) == cfg.n_real
        assert all(p.is_real for p in preds[: cfg.n_real])
        assert np.array_equal(np.stack([p.query for p in preds]), q)
        assert np.array_equal(np.stack([p.points.pts for p in preds]), pts)
        assert np.array_equal([p.score for p in preds], scores)

    def test_single_layer_matches_composed_ops(self):
        cfg, weights, b = self._setup(layers=1)
        q_out, pts_out, scores_out = decoder_forward(b, weights, cfg)
        lw = weights.decoder.layers[0]
        dec = weights.decoder
        q = np.concatenate([dec.real_queries, dec.virtual_queries])
        m = np.ones((cfg.n_queries, b.h * b.w), dtype=bool)
        q = layer_norm(masked_cross_attention(q, b, m), lw.masked_ln)
        refs = sigmoid(dec.init_ref_logits) * np.array([b.h - 1.0, b.w - 1.0])
        q = layer_norm(deformable_cross_attention(q, b, refs, lw.deform), lw.deform_ln)
        qr, qv = rvs_self_attention(q[: cfg.n_real], q[cfg.n_real :])
        q = layer_norm(np.concatenate([qr, qv]), lw.self_ln)
        q = layer_norm(q + mlp_forward(lw.ffn, q), lw.ffn_ln)
        pts = points_from_queries(q, dec.points_head, cfg)
        scores = sigmoid(mlp_forward(dec.score_head, q))[:, 0]
        assert np.array_equal(q_out, q)
        assert np.array_equal(pts_out, pts)
        assert np.array_equal(scores_out, scores)

    def test_swapping_real_queries_permutes_outputs(self):
        cfg, weights, b = self._setup()
        _, pts_a, _ = decoder_forward(b, weights, cfg)

        import copy

        weights_b = copy.deepcopy(weights)
        weights_b.decoder.real_queries = weights.decoder.real_queries.copy()
        weights_b.decoder.real_queries[[0, 1]] = weights.decoder.real_queries[[1, 0]]
        weights_b.decoder.init_ref_logits = weights.decoder.init_ref_logits.copy()
        weights_b.decoder.init_ref_logits[[0, 1]] = weights.decoder.init_ref_logits[[1, 0]]
        _, pts_b, _ = decoder_forward(b, weights_b, cfg)

        assert np.allclose(pts_b[0], pts_a[1], atol=1e-9)
        assert np.allclose(pts_b[1], pts_a[0], atol=1e-9)
        for i in range(2, cfg.n_queries):
            assert np.allclose(pts_b[i], pts_a[i], atol=1e-9)

    def test_toggles_preserve_shape_contract(self):
        for hybrid in (True, False):
            for rvs in (True, False):
                cfg, weights, b = self._setup(
                    hybrid_attention=hybrid, rvs_self_attention=rvs
                )
                q, pts, scores = decoder_forward(b, weights, cfg)
                assert q.shape == (cfg.n_queries, cfg.channels)
                assert pts.shape == (cfg.n_queries, cfg.k, 3)
                assert scores.shape == (cfg.n_queries,)

    def test_layer_count_mismatch_rejected(self):
        cfg, weights, b = self._setup()
        bad_cfg = PipelineConfig.from_dict({**cfg.to_dict(), "layers": 3})
        with pytest.raises(ValueError):
            decoder_forward(b, weights, bad_cfg)

    @pytest.mark.parametrize("hybrid", [True, False], ids=["hybrid-on", "hybrid-off"])
    def test_attention_masks_are_built_only_for_hybrid_attention(self, monkeypatch, hybrid):
        """Without hybrid attention no masked branch reads a mask, so no
        layer computes mask logits for one."""
        cfg, weights, b = self._setup(layers=3, hybrid_attention=hybrid)
        calls = []

        def counted(*args):
            calls.append(args)
            return instance_mask_logits(*args)

        monkeypatch.setattr(decoder, "instance_mask_logits", counted)
        decoder_forward(b, weights, cfg)
        assert len(calls) == (cfg.layers - 1 if hybrid else 0)
