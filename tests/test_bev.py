"""Numeric kernel: softmax, MLPs, bilinear sampling, position encodings,
finite differences."""

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.special import expit

from lanetopo import bev
from lanetopo.bev import (
    BevGrid,
    GridSpec,
    LayerNormWeights,
    MlpWeights,
    bilinear_sample_batch,
    binarize_logits,
    finite_diff_grad,
    layer_norm,
    mlp_forward,
    sigmoid,
    sinusoidal_pe_2d,
    softmax,
)
from lanetopo.config import PipelineConfig


def unit_spec(h: int, w: int) -> GridSpec:
    return GridSpec(h=h, w=w, x_min=0.0, y_min=0.0, resolution=1.0)


def random_grid(rng, h=4, w=5, c=3) -> BevGrid:
    return BevGrid(rng.normal(size=(h, w, c)), unit_spec(h, w))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_mask_sentinel(self):
        out = softmax(np.array([-np.inf, 0.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_matches_direct_formula(self):
        v = np.array([1.0, 2.0, 3.0])
        direct = np.exp(v - v.max())
        direct /= direct.sum()
        assert np.max(np.abs(softmax(v) - direct)) < 1e-12

    def test_fully_masked_row_raises(self):
        with pytest.raises(ValueError):
            softmax(np.array([-np.inf, -np.inf]))
        with pytest.raises(ValueError):
            softmax(np.array([[0.0, 1.0], [-np.inf, -np.inf]]), axis=-1)

    def test_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(0, 5, size=8)
            c = rng.normal()
            assert np.max(np.abs(softmax(v + c) - softmax(v))) < 1e-9
            assert abs(softmax(v).sum() - 1.0) < 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6)
        perm = rng.permutation(6)
        assert np.allclose(softmax(v)[perm], softmax(v[perm]), atol=1e-12)


class TestBinarizeLogits:
    def test_random_stacks_equal_the_sigmoid_test(self):
        rng = np.random.default_rng(0)
        for scale in (1e-16, 1e-13, 1e-3, 1.0, 40.0):
            x = rng.normal(scale=scale, size=(6, 20, 30))
            got = binarize_logits(x)
            assert got.dtype == bool
            assert np.array_equal(got, sigmoid(x) >= 0.5)

    def test_band_below_zero_equals_the_sigmoid_test(self):
        x = np.array([-(2.0**-k) for k in range(40, 61)] + [-1e-15, -5e-324, -0.0, 0.0])
        want = sigmoid(x) >= 0.5
        assert want.any() and not want.all()  # the band holds both answers
        assert np.array_equal(binarize_logits(x), want)
        assert np.array_equal(binarize_logits(x.reshape(1, -1, 1)), want.reshape(1, -1, 1))


class TestScipyWrappers:
    """``bev.sigmoid`` and ``bev.csr_array`` load SciPy on first use and
    return what SciPy returns."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
             np.inf, -np.inf, np.nan]

    def test_sigmoid_is_expit_bit_for_bit(self):
        # bytes, so -0.0 against 0.0 and NaN against NaN count
        rng = np.random.default_rng(12)
        for x in (np.array(self.EDGES), rng.normal(scale=8.0, size=(48, 20000))):
            assert sigmoid(x).tobytes() == expit(x).tobytes()

    @pytest.mark.parametrize("x", [-0.0, 1.5, np.float64(-745.0), np.array(-36.7),
                                   np.arange(-3.0, 3.0).reshape(2, 3)])
    def test_sigmoid_keeps_expit_type_and_shape(self, x):
        got, want = sigmoid(x), expit(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_csr_array_is_scipy_csr_array(self):
        data = np.array([0.5, -2.0, 1.25, 3.0])
        indices = np.array([3, 0, 2, 3], dtype=np.int32)
        indptr = np.array([0, 2, 2, 4], dtype=np.int32)
        got = bev.csr_array((data, indices, indptr), shape=(3, 5))
        want = csr_array((data, indices, indptr), shape=(3, 5))
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)


class TestMlp:
    def test_identity_layer(self):
        w = MlpWeights([(np.eye(3), np.zeros(3), "none")])
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(mlp_forward(w, x), x)

    def test_relu_clamp(self):
        w = MlpWeights([(np.array([[2.0]]), np.array([1.0]), "relu")])
        assert mlp_forward(w, np.array([-3.0])) == np.array([0.0])

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(2)
        w1, b1 = rng.normal(size=(5, 4)), rng.normal(size=5)
        w2, b2 = rng.normal(size=(2, 5)), rng.normal(size=2)
        w = MlpWeights([(w1, b1, "relu"), (w2, b2, "none")])
        x = rng.normal(size=4)
        hidden = np.maximum(w1 @ x + b1, 0.0)
        expected = w2 @ hidden + b2
        assert np.max(np.abs(mlp_forward(w, x) - expected)) < 1e-12

    def test_batched_input(self):
        rng = np.random.default_rng(3)
        w = MlpWeights([(rng.normal(size=(3, 4)), rng.normal(size=3), "none")])
        xs = rng.normal(size=(7, 4))
        batched = mlp_forward(w, xs)
        for i in range(7):
            assert np.allclose(batched[i], mlp_forward(w, xs[i]), atol=1e-12)

    def test_dimension_mismatch(self):
        w = MlpWeights([(np.eye(3), np.zeros(3), "none")])
        with pytest.raises(ValueError):
            mlp_forward(w, np.zeros(4))
        with pytest.raises(ValueError):
            MlpWeights([(np.eye(3), np.zeros(3), "none"), (np.eye(4), np.zeros(4), "none")])


class TestBilinear:
    def test_exact_cell(self):
        g = random_grid(np.random.default_rng(4))
        assert np.array_equal(bilinear_sample_batch(g, (2.0, 3.0)), g.data[2, 3])

    def test_midpoint_of_two_cells(self):
        g = random_grid(np.random.default_rng(5))
        expected = 0.5 * (g.data[1, 2] + g.data[1, 3])
        assert np.allclose(bilinear_sample_batch(g, (1.0, 2.5)), expected, atol=1e-12)

    def test_matches_four_corner_oracle(self):
        rng = np.random.default_rng(6)
        g = random_grid(rng)
        for _ in range(50):
            r = rng.uniform(0, g.h - 1)
            c = rng.uniform(0, g.w - 1)
            r0, c0 = int(np.floor(r)), int(np.floor(c))
            r1, c1 = min(r0 + 1, g.h - 1), min(c0 + 1, g.w - 1)
            fr, fc = r - r0, c - c0
            expected = (
                (1 - fr) * (1 - fc) * g.data[r0, c0]
                + (1 - fr) * fc * g.data[r0, c1]
                + fr * (1 - fc) * g.data[r1, c0]
                + fr * fc * g.data[r1, c1]
            )
            assert np.max(np.abs(bilinear_sample_batch(g, (r, c)) - expected)) < 1e-12

    def test_out_of_bounds_returns_zero(self):
        g = random_grid(np.random.default_rng(7))
        for loc in [(-0.1, 0.0), (0.0, -0.1), (g.h - 0.9, 0.0), (0.0, g.w - 0.9), (100, 100)]:
            assert np.array_equal(bilinear_sample_batch(g, loc), np.zeros(g.c))

    def test_batch_shapes(self):
        g = random_grid(np.random.default_rng(8))
        locs = np.random.default_rng(9).uniform(0, 3, size=(2, 5, 2))
        out = bilinear_sample_batch(g, locs)
        assert out.shape == (2, 5, g.c)

    def test_continuity(self):
        rng = np.random.default_rng(10)
        g = random_grid(rng)
        bound = 2.0 * np.max(np.abs(g.data))
        for _ in range(20):
            loc = rng.uniform(0.5, 2.5, size=2)
            delta = 1e-6
            a = bilinear_sample_batch(g, loc)
            b = bilinear_sample_batch(g, loc + delta)
            assert np.max(np.abs(a - b)) <= bound * 2 * delta + 1e-12


def sample_all_channels_then_slice(g: BevGrid, locs: np.ndarray, heads: int) -> np.ndarray:
    """Reference for the per-head gather: bilinear samples of every channel at
    every location, of which head k keeps only its channel slice k.

    ``locs`` has shape (n, heads, points, 2); the result (n, heads, points, c // heads).
    """
    locs = np.asarray(locs, dtype=np.float64)
    r, c = locs[..., 0], locs[..., 1]
    h, w = g.h, g.w
    inside = (r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1)
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    fr, fc = r - r0, c - c0
    r0c, r1c = np.clip(r0, 0, h - 1), np.clip(r0 + 1, 0, h - 1)
    c0c, c1c = np.clip(c0, 0, w - 1), np.clip(c0 + 1, 0, w - 1)
    samples = (
        ((1 - fr) * (1 - fc))[..., None] * g.data[r0c, c0c]
        + ((1 - fr) * fc)[..., None] * g.data[r0c, c1c]
        + (fr * (1 - fc))[..., None] * g.data[r1c, c0c]
        + (fr * fc)[..., None] * g.data[r1c, c1c]
    )
    samples[~inside] = 0.0
    n, _, points = locs.shape[:3]
    per_head = samples.reshape(n, heads, points, heads, g.c // heads)
    idx = np.arange(heads)
    return per_head[:, idx, :, idx, :].transpose(1, 0, 2, 3)


class TestPerHeadGather:
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_equals_all_channel_reference(self, heads):
        rng = np.random.default_rng(20 + heads)
        g = random_grid(rng, h=5, w=7, c=16)
        locs = np.concatenate(
            [
                rng.uniform(-0.5, [4.5, 6.5], size=(30, heads, 3, 2)),
                # exact cell centres, including the last row and column
                rng.integers(0, [5, 7], size=(10, heads, 3, 2)).astype(np.float64),
                np.broadcast_to([4.0, 6.0], (2, heads, 3, 2)),
                np.broadcast_to([4.0, 0.0], (1, heads, 3, 2)),
                np.broadcast_to([0.0, 6.0], (1, heads, 3, 2)),
            ]
        )
        out = bilinear_sample_batch(g, locs, heads)
        assert out.shape == (locs.shape[0], heads, 3, 16 // heads)
        assert np.array_equal(out, sample_all_channels_then_slice(g, locs, heads))

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_cell_centres_read_the_head_slice(self, heads):
        g = random_grid(np.random.default_rng(30), h=5, w=7, c=16)
        hd = 16 // heads
        for r, c in [(0, 0), (2, 3), (4, 6), (4, 0), (0, 6)]:
            out = bilinear_sample_batch(g, np.full((1, heads, 1, 2), [r, c], dtype=float), heads)
            for k in range(heads):
                assert np.array_equal(out[0, k, 0], g.data[r, c, k * hd : (k + 1) * hd])

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_just_outside_the_grid_is_zero(self, heads):
        g = random_grid(np.random.default_rng(31), h=5, w=7, c=16)
        eps = 1e-9
        outside = [
            (-eps, 0.0),
            (0.0, -eps),
            (4.0 + eps, 3.0),
            (2.0, 6.0 + eps),
            (4.0 + eps, 6.0 + eps),
        ]
        locs = np.broadcast_to(np.array(outside)[:, None, None, :], (5, heads, 2, 2))
        out = bilinear_sample_batch(g, locs, heads)
        assert np.array_equal(out, np.zeros((5, heads, 2, 16 // heads)))
        assert np.array_equal(out, sample_all_channels_then_slice(g, locs, heads))

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_non_finite_and_huge_locations_are_zero_without_a_cast_warning(self, heads):
        # the suite turns RuntimeWarning into an error, so a NaN-to-int cast fails here
        g = random_grid(np.random.default_rng(32), h=5, w=7, c=16)
        values = [np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0, 2.5, 4.0, 6.0]
        pairs = np.array([(r, c) for r in values for c in values])
        rng = np.random.default_rng(33)
        idx = rng.integers(0, len(pairs), size=(len(pairs), heads, 3))
        idx[:, :, 0] = np.arange(len(pairs))[:, None]  # every pair at every head
        locs = pairs[idx]
        out = bilinear_sample_batch(g, locs, heads)
        r, c = locs[..., 0], locs[..., 1]
        inside = (r >= 0) & (r <= 4) & (c >= 0) & (c <= 6)
        assert inside.any() and not inside.all()
        assert np.array_equal(out[~inside], np.zeros((np.count_nonzero(~inside), 16 // heads)))
        # the reference casts every location first, as the sampler did before
        with np.errstate(all="ignore"):
            reference = sample_all_channels_then_slice(g, locs, heads)
        assert np.array_equal(out, reference)
        for loc in [(np.nan, 1.0), (1.0, -np.inf), (1e300, 2.0)]:
            assert np.array_equal(bilinear_sample_batch(g, loc), np.zeros(16))


class TestSinusoidalPe:
    def test_entries_bounded(self):
        spec = unit_spec(6, 9)
        g = sinusoidal_pe_2d(spec, 8)
        assert g.spec == spec and g.data.shape == (6, 9, 8)
        assert np.all(g.data >= -1.0) and np.all(g.data <= 1.0)

    def test_distinct_cells_distinct_encodings(self):
        for h, w in [(8, 8), (16, 16), (5, 13)]:
            g = sinusoidal_pe_2d(unit_spec(h, w), 8)
            flat = g.flat()
            unique = np.unique(flat, axis=0)
            assert unique.shape[0] == h * w

    def test_origin_channel_zero(self):
        g = sinusoidal_pe_2d(unit_spec(4, 4), 8)
        assert g.data[0, 0, 0] == 0.0

    def test_determinism(self):
        a = sinusoidal_pe_2d(unit_spec(10, 20), 16)
        b = sinusoidal_pe_2d(unit_spec(10, 20), 16)
        assert np.array_equal(a.data, b.data)

    def test_channels_must_divide_by_four(self):
        with pytest.raises(ValueError):
            sinusoidal_pe_2d(unit_spec(4, 4), 6)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, 2.0]), eps=1e-5)
        assert np.allclose(grad, [2.0, 4.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda x: 3.5, np.array([1.0, -1.0, 0.2]))
        assert np.array_equal(grad, np.zeros(3))


class TestLayerNorm:
    def test_normalizes_then_affines(self):
        rng = np.random.default_rng(11)
        x = rng.normal(2.0, 3.0, size=8)
        ln = LayerNormWeights(scale=np.full(8, 2.0), shift=np.full(8, 1.0))
        out = layer_norm(x, ln)
        base = (out - 1.0) / 2.0
        assert abs(base.mean()) < 1e-9
        assert abs(base.std() - 1.0) < 1e-3  # eps slightly shrinks the std

    def test_equals_the_two_subtraction_formula(self):
        rng = np.random.default_rng(13)
        x = rng.normal(2.0, 3.0, size=(500, 32))
        ln = LayerNormWeights(rng.uniform(0.5, 1.5, 32), rng.normal(size=32))
        mean = np.mean(x, axis=-1, keepdims=True)
        var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5) * ln.scale + ln.shift
        out = layer_norm(x, ln)
        assert np.array_equal(out, expected)
        assert np.array_equal(layer_norm(x[7], ln), expected[7])


class TestGridSpec:
    def test_metric_cell_round_trip(self):
        spec = PipelineConfig().grid
        rng = np.random.default_rng(12)
        xy = rng.uniform([-50, -25], [50, 25], size=(100, 2))
        back = spec.cell_to_metric(spec.metric_to_cell(xy))
        assert np.max(np.abs(back - xy)) < 1e-9

    def test_orientation(self):
        spec = PipelineConfig().grid
        rc = spec.metric_to_cell(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert rc[1, 1] > rc[0, 1]  # column grows with x
        assert rc[2, 0] > rc[0, 0]  # row grows with y

    @pytest.mark.parametrize("h, w", [(1, 7), (5, 1), (1, 1)])
    def test_one_cell_axes_match_the_reference(self, h, w):
        g = random_grid(np.random.default_rng(34), h=h, w=w, c=16)
        rng = np.random.default_rng(35)
        locs = np.concatenate(
            [
                rng.uniform(-0.3, [h - 0.7, w - 0.7], size=(20, 2, 3, 2)),
                np.broadcast_to([h - 1.0, w - 1.0], (1, 2, 3, 2)),
                np.broadcast_to([0.0, 0.0], (1, 2, 3, 2)),
            ]
        )
        assert np.array_equal(
            bilinear_sample_batch(g, locs, 2), sample_all_channels_then_slice(g, locs, 2)
        )


class TestWeightedSample:
    @pytest.mark.parametrize("h, w, heads", [(1, 7, 2), (5, 1, 2), (1, 1, 1), (2, 2, 4), (5, 7, 8)])
    def test_every_corner_row_is_inside_the_table(self, monkeypatch, h, w, heads):
        # a corner at weight 0 does not change the result, so check its row directly
        built = []

        def recording_csr_array(arg, shape):
            built.append((arg[1], shape))
            return csr_array(arg, shape=shape)

        monkeypatch.setattr(bev, "csr_array", recording_csr_array)
        rng = np.random.default_rng(47)
        g = random_grid(rng, h=h, w=w, c=8)
        edges = [(h - 1, w - 1), (h - 1, 0), (0, w - 1), (0, 0), (np.nan, 0), (h, w), (-1, -1)]
        locs = np.concatenate(
            [
                rng.uniform(-0.5, [h - 0.5, w - 0.5], size=(20, heads, 3, 2)),
                np.broadcast_to(np.array(edges, dtype=float)[:, None, None], (7, heads, 3, 2)),
            ]
        )
        bilinear_sample_batch(g, locs, heads)
        bilinear_sample_batch(g, locs, heads, rng.uniform(size=locs.shape[:-1]))
        assert len(built) == 2
        for rows, shape in built:
            assert rows.min() >= 0 and rows.max() < shape[1] == h * w * heads

    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_equals_the_per_point_samples_summed_with_the_weights(self, heads):
        rng = np.random.default_rng(40 + heads)
        g = random_grid(rng, h=5, w=7, c=16)
        locs = rng.uniform(-1.0, [5.0, 7.0], size=(40, heads, 3, 2))
        locs[0, 0, 0] = [np.nan, 1.0]
        locs[1, -1, 1] = [2.0, np.inf]
        locs[2, :, 2] = [4.0, 6.0]
        a = rng.uniform(size=(40, heads, 3))
        out = bilinear_sample_batch(g, locs, heads, a)
        assert out.shape == (40, heads, 16 // heads)
        expected = np.einsum("nhp,nhpd->nhd", a, bilinear_sample_batch(g, locs, heads))
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_one_head_sums_the_last_location_axis(self):
        rng = np.random.default_rng(44)
        g = random_grid(rng, h=4, w=5, c=3)
        locs = rng.uniform(0.0, [3.0, 4.0], size=(6, 4, 2))
        a = rng.normal(size=(6, 4))
        out = bilinear_sample_batch(g, locs, weights=a)
        assert out.shape == (6, 3)
        expected = np.einsum("np,npd->nd", a, bilinear_sample_batch(g, locs))
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_weights_must_match_the_locations(self):
        g = random_grid(np.random.default_rng(45))
        with pytest.raises(ValueError, match="weights must have shape"):
            bilinear_sample_batch(g, np.zeros((6, 4, 2)), weights=np.ones((6, 3)))
        with pytest.raises(ValueError, match="weights must have shape"):
            bilinear_sample_batch(g, (1.0, 2.0), weights=np.ones(()))

    def test_a_nan_weight_propagates_as_in_the_per_point_sum(self):
        # an out-of-grid sample is zero, and NaN times zero is NaN
        g = random_grid(np.random.default_rng(46), h=4, w=5, c=4)
        locs = np.array([[[[1.5, 2.5], [np.nan, 0.0]], [[1.5, 2.5], [9.0, 0.0]]]])
        a = np.array([[[0.5, np.nan], [0.5, 0.5]]])
        out = bilinear_sample_batch(g, locs, 2, a)
        assert np.isnan(out[0, 0]).all()
        per_point = bilinear_sample_batch(g, locs, 2)
        assert np.allclose(out[0, 1], 0.5 * per_point[0, 1, 0], rtol=0, atol=1e-12)
