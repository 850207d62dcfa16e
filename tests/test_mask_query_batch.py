"""The batched mask-query path against the per-query loops it replaced.

The loops below are the reference: mask queries q', mask logits, both soft-
argmax readouts, the existence heads and the direction heads, one instance at
a time. The batched path sums in another order (GEMMs in place of
per-instance matvecs), so it is held to atol=1e-12. The boolean keep
matrix is held to exact equality with the float 0/-inf mask it replaced.
The masked attention's output, normalized after its value product, is held
to the float-mask softmax at atol=1e-12; the weights of its exact path,
``decoder._kept_softmax``, are held to the sentinel softmax bit for bit.
"""

import numpy as np
import pytest

from lanetopo import decoder
from lanetopo.bev import BevGrid, GridSpec, mlp_forward, sigmoid, softmax
from lanetopo.config import PipelineConfig
from lanetopo.decoder import decoder_forward, instance_mask_logits
from lanetopo.pipeline import infer
from lanetopo.points_mask import AXIS_COLUMNS, AXIS_ROWS
from lanetopo.scene import SceneParams, render_bev_features, synth_scene
from lanetopo.weights import init_model_weights

ATOL = 1e-12

CONFIGS = {
    "desk": lambda **kw: PipelineConfig.desk(**kw),
    # the full-size architecture at 48 queries and 32 channels on 100 x 200
    "full-48q-32c": lambda **kw: PipelineConfig(
        n_real=24, n_virtual=24, channels=32, ffn_dim=64, **kw
    ),
}


def mask_queries_loop(q, pts, mh, points_guided):
    out = []
    for qi, pi in zip(q, pts):
        if points_guided:
            per_point = mlp_forward(mh.point_mlp, pi)  # (k, c)
            positional = mlp_forward(mh.concat_mlp, per_point.reshape(-1))
            out.append(positional + mlp_forward(mh.query_mlp, qi))
        else:
            out.append(mlp_forward(mh.query_mlp, qi))
    return np.stack(out)


def logits_loop(b, q_prime):
    return np.stack([b.data @ qp for qp in q_prime])


def readouts_loop(mask_logits, q_prime, mh, axis):
    exist, direction = (mh.exist_col, mh.dir_col) if axis == AXIS_COLUMNS else (
        mh.exist_row, mh.dir_row
    )
    coords, existence, directions = [], [], []
    for m, qp in zip(mask_logits, q_prime):
        h, w = m.shape
        if axis == AXIS_COLUMNS:
            coords.append(np.arange(h, dtype=np.float64) @ softmax(m, axis=0))
        else:
            coords.append(softmax(m, axis=1) @ np.arange(w, dtype=np.float64))
        existence.append(sigmoid(mlp_forward(exist, m.reshape(-1))))
        directions.append(float(sigmoid(mlp_forward(direction, qp).reshape(-1)[0])))
    return np.stack(coords), np.stack(existence), np.array(directions)


def float_mask_attention(q, b, m):
    """Masked cross-attention with a float {0, -inf} mask added to the scores;
    layer 0's None (attend everywhere) becomes the all-zero mask."""
    cells = b.flat()
    if m is None:
        m = np.zeros((len(q), len(cells)))
    elif m.dtype == bool:
        m = np.where(m, 0.0, -np.inf)
    return q + softmax(q @ cells.T + m, axis=-1) @ cells


def sentinel_mask_attention(q, b, m):
    """Attention weights with -inf written into every dropped score, then the
    generic softmax."""
    scores = q @ b.flat().T
    np.copyto(scores, -np.inf, where=~m)
    return softmax(scores, axis=-1)


def float_attention_mask(mask_logits, threshold=0.5):
    logits = np.asarray(mask_logits, dtype=np.float64)
    probs = sigmoid(logits).reshape(logits.shape[0], -1)
    m = np.where(probs >= threshold, 0.0, -np.inf)
    m[~np.any(m == 0.0, axis=1)] = 0.0
    return m


def setup(name, **overrides):
    cfg = CONFIGS[name](**overrides)
    weights = init_model_weights(cfg)
    scene = synth_scene(5, SceneParams(n_lanes=2, intersections=1))
    return cfg, weights, render_bev_features(scene, cfg)


@pytest.fixture(scope="module", params=[("desk", True), ("desk", False), ("full-48q-32c", True)],
                ids=["desk-pgm", "desk-query-only", "full-48q-32c-pgm"])
def inferred(request):
    name, pgm = request.param
    cfg, weights, b = setup(name, pgm=pgm)
    return cfg, weights, b, infer(b, cfg, weights)


def test_mask_queries_and_logits_match_the_loops(inferred):
    cfg, weights, b, out = inferred
    q = np.stack([p.query for p in out.predictions])
    pts = np.stack([p.points.pts for p in out.predictions])
    logits, q_prime = instance_mask_logits(q, pts, b, weights, cfg.pgm)
    q_prime_ref = mask_queries_loop(q, pts, weights.mask_head, cfg.pgm)
    assert q_prime.shape == (cfg.n_queries, cfg.channels)
    assert np.allclose(q_prime, q_prime_ref, rtol=0.0, atol=ATOL)
    assert logits.shape == (cfg.n_queries, cfg.grid_h, cfg.grid_w)
    assert np.allclose(logits, logits_loop(b, q_prime_ref), rtol=0.0, atol=ATOL)
    assert np.array_equal(out.mask_logits, logits)


@pytest.mark.parametrize("axis", [AXIS_COLUMNS, AXIS_ROWS])
def test_readouts_match_the_loops(inferred, axis):
    cfg, weights, b, out = inferred
    q = np.stack([p.query for p in out.predictions])
    pts = np.stack([p.points.pts for p in out.predictions])
    q_prime = mask_queries_loop(q, pts, weights.mask_head, cfg.pgm)
    coords, existence, directions = readouts_loop(
        out.mask_logits, q_prime, weights.mask_head, axis
    )
    readouts = out.col_readouts if axis == AXIS_COLUMNS else out.row_readouts
    assert len(readouts) == cfg.n_queries
    assert all(r.axis == axis for r in readouts)
    assert np.allclose(np.stack([r.coords for r in readouts]), coords, rtol=0.0, atol=ATOL)
    assert np.allclose(
        np.stack([r.existence for r in readouts]), existence, rtol=0.0, atol=ATOL
    )
    assert np.allclose([r.direction for r in readouts], directions, rtol=0.0, atol=ATOL)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_decoder_matches_the_per_query_logits(monkeypatch, name):
    cfg, weights, b = setup(name)
    _, pts, scores = decoder_forward(b, weights, cfg)

    def logits_per_query(q, pts, b, weights, points_guided):
        q_prime = mask_queries_loop(q, pts, weights.mask_head, points_guided)
        return logits_loop(b, q_prime), q_prime

    monkeypatch.setattr(decoder, "instance_mask_logits", logits_per_query)
    _, ref_pts, ref_scores = decoder_forward(b, weights, cfg)
    assert np.allclose(pts, ref_pts, rtol=0.0, atol=ATOL)
    assert np.all(np.abs(scores - ref_scores) <= ATOL)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_boolean_attention_mask_equals_the_float_mask(monkeypatch, name):
    cfg, weights, b = setup(name, hybrid_attention=True)
    q, pts, scores = decoder_forward(b, weights, cfg)
    monkeypatch.setattr(decoder, "masked_cross_attention", float_mask_attention)
    monkeypatch.setattr(decoder, "attention_mask_from_instance_masks", float_attention_mask)
    ref_q, ref_pts, ref_scores = decoder_forward(b, weights, cfg)
    # the kernel normalizes after the value product, the reference before
    assert np.allclose(pts, ref_pts, rtol=0.0, atol=ATOL)
    assert np.allclose(scores, ref_scores, rtol=0.0, atol=ATOL)
    assert np.allclose(q, ref_q, rtol=0.0, atol=ATOL)


def test_keep_matrix_equals_the_float_mask():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 5, 7))
    logits[2] = -5.0  # a fallback row
    logits[0, 1, :4] = (-1e-12, -3.3e-16, -0.0, 0.0)  # cells the sigmoid decides
    logits[4] = -np.abs(logits[4]) - 1e-300  # an all-negative row
    keep = decoder.attention_mask_from_instance_masks(logits)
    assert keep.dtype == bool
    assert np.array_equal(np.where(keep, 0.0, -np.inf), float_attention_mask(logits, 0.5))
    assert keep[4].all() and not keep[0, 7] and keep[0, 8:11].all()


def random_grid_and_mask(seed, n=6, h=5, w=7, c=4):
    rng = np.random.default_rng(seed)
    b = BevGrid(rng.normal(size=(h, w, c)), GridSpec(h, w, 0.0, 0.0, 1.0))
    m = rng.random((n, h * w)) < 0.5
    m[np.arange(n), rng.integers(0, h * w, size=n)] = True  # no fully masked row
    return b, rng.normal(size=(n, c)), m


def test_a_dropped_cell_far_above_the_kept_ones_gets_weight_zero():
    # exp of a dropped score 1e300 above the kept maximum overflows, and
    # inf * False would be NaN
    b, q, m = random_grid_and_mask(4)
    b.data[0, 0] = 1e150
    q[:3] = 1e150
    m[:3, 0] = False
    assert (q[:3] @ b.flat()[0] > 1e300).all()
    cells = b.flat()
    weights = decoder._kept_softmax(q @ cells.T, m)
    assert np.array_equal(weights, sentinel_mask_attention(q, b, m))
    assert not weights[~m].any()
    out = decoder.masked_cross_attention(q, b, m)
    assert np.isfinite(out).all()
    assert np.allclose(out, float_mask_attention(q, b, m), rtol=0.0, atol=ATOL)
    assert np.allclose(out, q + weights @ cells, rtol=0.0, atol=ATOL)


def test_non_finite_scores_give_the_sentinel_softmax_weights():
    b, q, m = random_grid_and_mask(5)
    b.data[0, 0, 0] = np.nan  # past the grid's check: scores NaN, as an overflow can make them
    b.data[0, 1] = 1e200  # scores +inf
    q[:4] = 1e200
    m[0, :2] = (False, False)  # dropped NaN and +inf, finite kept cells
    m[1, :2] = (True, False)  # kept NaN
    m[2, :2] = (False, True)  # kept +inf: the row is NaN, as softmax makes it
    m[3, :2] = (True, True)
    cells = b.flat()
    with np.errstate(over="ignore", invalid="ignore"):
        weights = decoder._kept_softmax(q @ cells.T, m)
        expected = sentinel_mask_attention(q, b, m)
        out = decoder.masked_cross_attention(q, b, m)
        ref = q + weights @ cells
    assert np.isfinite(weights[0]).all() and np.isnan(weights[1:4]).all()
    assert np.array_equal(weights, expected, equal_nan=True)
    assert np.allclose(out, ref, rtol=0.0, atol=ATOL, equal_nan=True)


@pytest.mark.parametrize("seed", [6, 7])
def test_no_mask_equals_the_all_true_mask(seed):
    b, q, m = random_grid_and_mask(seed, n=48, h=20, w=40, c=32)
    scores = q @ b.flat().T
    weights = decoder._kept_softmax(scores.copy(), None)
    assert np.array_equal(weights, decoder._kept_softmax(scores, np.ones_like(m)))
    out = decoder.masked_cross_attention(q, b, None)
    assert np.array_equal(out, decoder.masked_cross_attention(q, b, np.ones_like(m)))


def exact_path_rows(monkeypatch):
    """Record the rows that masked_cross_attention sends to its exact path."""
    seen = []
    kept_softmax = decoder._kept_softmax

    def recording(scores, m):
        seen.append(len(scores))
        return kept_softmax(scores, m)

    monkeypatch.setattr(decoder, "_kept_softmax", recording)
    return seen


@pytest.mark.parametrize("n, h, w, c", [(48, 100, 200, 32), (32, 50, 100, 32)],
                         ids=["full-pair", "desk"])
def test_the_fast_path_equals_the_float_mask(monkeypatch, n, h, w, c):
    b, q, m = random_grid_and_mask(8, n=n, h=h, w=w, c=c)
    m[:4] = True  # layer 0's everywhere rows among masked ones
    seen = exact_path_rows(monkeypatch)
    out = decoder.masked_cross_attention(q, b, m)
    assert seen == []
    assert np.allclose(out, float_mask_attention(q, b, m), rtol=0.0, atol=ATOL)
    out = decoder.masked_cross_attention(q, b, None)
    assert seen == []
    assert np.allclose(out, float_mask_attention(q, b, None), rtol=0.0, atol=ATOL)


def test_kept_cells_far_below_a_dropped_maximum_take_the_exact_path(monkeypatch):
    # row 1 keeps only cells about 800 below its dropped maximum: shifted by
    # that maximum, every kept exp underflows to 0
    b, q, m = random_grid_and_mask(9, n=4, h=5, w=7, c=4)
    b.data[0, 0] = 200.0
    q[1] = 1.0
    m[1] = True
    m[1, 0] = False
    scores = q[1] @ b.flat().T
    assert 780 < scores[0] - scores[m[1]].max() < 820
    seen = exact_path_rows(monkeypatch)
    out = decoder.masked_cross_attention(q, b, m)
    assert seen == [1]  # row 1 alone, rescored on its own
    assert np.isfinite(out).all()
    assert np.allclose(out, float_mask_attention(q, b, m), rtol=0.0, atol=ATOL)
    weights = decoder._kept_softmax(q @ b.flat().T, m)
    assert np.isfinite(weights).all()
    assert weights[1, 0] == 0.0
    assert abs(weights[1].sum() - 1.0) < 1e-15
    assert np.array_equal(weights, sentinel_mask_attention(q, b, m))
    assert np.allclose(out, q + weights @ b.flat(), rtol=0.0, atol=ATOL)


def test_a_fully_masked_row_raises_with_and_without_a_mask():
    b, q, m = random_grid_and_mask(10)
    m[2] = False
    with pytest.raises(ValueError, match="^softmax over a fully masked row$"):
        decoder.masked_cross_attention(q, b, m)
    b.data[..., 0] = 1e200  # past the grid's check
    q[3] = (-1e200, 0.0, 0.0, 0.0)  # every score of row 3 overflows to -inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isneginf(q[3] @ b.flat().T).all()
        with pytest.raises(ValueError, match="^softmax over a fully masked row$"):
            decoder.masked_cross_attention(q, b, None)
