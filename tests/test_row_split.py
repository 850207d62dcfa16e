"""The decoder's and mask heads' row split over the caller and the helper thread.

From ``bev.ROW_SPLIT`` rows x cells on, ``masked_cross_attention``,
``generate_mask`` and ``sample_mask_points`` run the first half of their rows
on the calling thread and the rest on the helper thread; ``predict_existence``
splits its output columns instead. These tests pin each half to the bits of
both halves run inline on one thread, and check that errors and numpy's error
state cross between the threads. ``tests/test_determinism.py`` pins the split
pipeline to the unsplit one in a fresh one-BLAS-thread process: at two BLAS
threads a subset of rows can round differently, so that check cannot run
here, nor the existence head's column check below.
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lanetopo import bev, decoder
from lanetopo.bev import BevGrid, GridSpec, NonFiniteError
from lanetopo.config import PipelineConfig
from lanetopo.decoder import masked_cross_attention
from lanetopo.pipeline import fuse, infer, run_pipeline
from lanetopo.points_mask import (
    AXIS_COLUMNS,
    AXIS_ROWS,
    generate_mask,
    predict_existence,
    sample_mask_points,
)
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.weights import (
    init_model_weights,
    model_weights_from_tensors,
    model_weights_to_tensors,
)

# the full-pair benchmark's shape: 48 queries and 32 channels on 100 x 200
FULL_PAIR = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64)
CELLS = FULL_PAIR.grid.h * FULL_PAIR.grid.w


@pytest.fixture(scope="module")
def full_pair():
    """The full-pair grid and weights, and a random (48, 32) query batch, keep
    mask and (48, h, w) mask logits of the grid's scale."""
    weights = init_model_weights(FULL_PAIR, seed=3)
    b = render_bev_features(synth_scene(7), FULL_PAIR)
    rng = np.random.default_rng(11)
    n = FULL_PAIR.n_queries
    q = rng.normal(size=(n, FULL_PAIR.channels))
    m = rng.random((n, CELLS)) < 0.5
    logits = rng.normal(size=(n, FULL_PAIR.grid.h, FULL_PAIR.grid.w))
    return b, weights, q, m, logits


def run_inline(monkeypatch) -> list:
    """Make every split run both halves on this thread, in order; returns the
    list of the (first, second) row slices of each split."""
    splits = []

    def run_pair(first, second):
        splits.append((first.args[0], second.args[0]))
        first()
        second()

    monkeypatch.setattr(bev, "_run_pair", run_pair)
    return splits


def heads(b, weights, q, m, logits):
    """Each split function's output on the inputs; ``weights`` gives the mask
    head's existence MLPs."""
    mh = weights.mask_head
    return {
        "attention-unmasked": masked_cross_attention(q, b, None),
        "attention-masked": masked_cross_attention(q, b, m),
        "mask": generate_mask(b, q),
        "coords-columns": sample_mask_points(logits, AXIS_COLUMNS),
        "coords-rows": sample_mask_points(logits, AXIS_ROWS),
        "existence-columns": predict_existence(logits, mh.exist_col, AXIS_COLUMNS),
        "existence-rows": predict_existence(logits, mh.exist_row, AXIS_ROWS),
    }


@pytest.mark.parametrize("n", [48, 25], ids=["full-pair", "odd-rows"])
def test_the_two_thread_split_gives_the_inline_bits(full_pair, monkeypatch, n):
    b, weights, q, m, logits = full_pair
    args = (b, weights, q[:n], m[:n], logits[:n])
    assert n * CELLS >= bev.ROW_SPLIT  # every call splits
    threaded = heads(*args)
    splits = run_inline(monkeypatch)
    expected = heads(*args)
    half = (n + 1) // 2
    rows = [(slice(0, half), slice(half, n))] * (len(expected) - 2)
    # the existence heads split their w and h output columns
    columns = [(slice(0, 100), slice(100, 200)), (slice(0, 50), slice(50, 100))]
    assert splits == rows + columns
    for name, out in threaded.items():
        assert np.array_equal(out, expected[name]), name


def test_callers_on_several_threads_share_the_helper_and_keep_their_bits(monkeypatch):
    # six callers queue their second halves on the one helper thread; a
    # 10 x 20 grid and a low ROW_SPLIT keep the calls small
    monkeypatch.setattr(bev, "ROW_SPLIT", 64)
    cfg = PipelineConfig.desk(resolution=5.0)
    weights = init_model_weights(cfg, seed=5)
    rng = np.random.default_rng(8)
    b = BevGrid(rng.normal(size=(10, 20, cfg.channels)), GridSpec(10, 20, 0.0, 0.0, 1.0))
    inputs = [
        (b, weights, rng.normal(size=(n, cfg.channels)), rng.random((n, 200)) < 0.5,
         rng.normal(size=(n, 10, 20)))
        for n in range(5, 11)
    ]
    with monkeypatch.context() as inline:
        run_inline(inline)
        expected = [heads(*args) for args in inputs]
    got = [[] for _ in inputs]

    def call(k):
        for _ in range(3):
            got[k].append(heads(*inputs[k]))

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
        assert len(outs) == 3, k
        for out in outs:
            for name, value in out.items():
                assert np.array_equal(value, expected[k][name]), (k, name)


def test_an_exact_path_row_in_the_helpers_half_keeps_its_bits(full_pair, monkeypatch):
    # row n-1 keeps its three lowest-scoring cells, about 100 below its
    # maximum, so its kept exps sum below MIN_KEPT_SUM and it takes the exact
    # path: a softmax over those three
    b, _, q, m, _ = full_pair
    q, m = q.copy(), m.copy()
    cells = b.flat()
    scores = q[-1] @ cells.T
    q[-1] *= 100 / (scores.max() - scores.min())
    scores = q[-1] @ cells.T
    low = np.argsort(scores)[:3]
    m[-1] = False
    m[-1, low] = True
    weights = np.exp(scores[low] - scores[low].max())
    weights /= weights.sum()
    assert weights.max() < 0.99
    kept_softmax = decoder._kept_softmax
    exact = []

    def spy(scores, keep):
        exact.append(threading.get_ident())
        return kept_softmax(scores, keep)

    monkeypatch.setattr(decoder, "_kept_softmax", spy)
    threaded = masked_cross_attention(q, b, m)
    assert len(exact) == 1 and exact[0] != threading.get_ident()
    assert np.allclose(threaded[-1], q[-1] + weights @ cells[low], rtol=0, atol=1e-12)
    run_inline(monkeypatch)
    assert np.array_equal(threaded, masked_cross_attention(q, b, m))
    assert len(exact) == 2


def test_a_fully_masked_row_in_the_helpers_half_raises(full_pair):
    b, _, q, m, _ = full_pair
    m = m.copy()
    m[-1] = False
    with pytest.raises(ValueError, match="^softmax over a fully masked row$"):
        masked_cross_attention(q, b, m)


def test_huge_decoder_weights_at_the_full_pair_shape_raise_without_a_warning(monkeypatch):
    # queries of +-1e308 overflow q @ cells^T on both halves of the split, so
    # rows take the exact path on both threads; the helper runs in infer's
    # errstate, so neither half warns
    tensors, meta = model_weights_to_tensors(init_model_weights(FULL_PAIR))
    for name in ("decoder.real_queries", "decoder.virtual_queries"):
        tensors[name] = np.copysign(1e308, tensors[name])
    weights = model_weights_from_tensors(tensors, meta)
    kept_softmax = decoder._kept_softmax
    threads = set()

    def spy(scores, keep):
        threads.add(threading.get_ident())
        return kept_softmax(scores, keep)

    monkeypatch.setattr(decoder, "_kept_softmax", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^infer produced non-finite"):
            run_pipeline(synth_scene(7), FULL_PAIR, weights)
    assert len(threads) == 2


def test_a_desk_run_submits_nothing_to_the_helper(monkeypatch):
    # the desk shapes (32 x 5,000 and 16 x 5,000 rows x cells) stay below
    # ROW_SPLIT, where the hand-off costs more than the second core saves
    cfg = PipelineConfig.desk()
    weights = init_model_weights(cfg)
    b = render_bev_features(synth_scene(7), cfg)
    assert cfg.n_queries * cfg.grid.h * cfg.grid.w < bev.ROW_SPLIT

    def no_helper():
        raise AssertionError("a desk run asked for the helper thread")

    monkeypatch.setattr(bev, "_helper", no_helper)
    fuse(infer(b, cfg, weights))


def test_rows_below_the_split_size_run_inline_in_one_call():
    calls = []

    def run(rows):
        calls.append((rows, threading.get_ident()))

    bev._run_halves(run, 1, bev.ROW_SPLIT)
    bev._run_halves(run, 2, 2 * (bev.ROW_SPLIT // 2 - 1))
    assert calls == [(slice(None), threading.get_ident())] * 2


def test_leading_axes_are_flattened_for_the_split_and_restored():
    rng = np.random.default_rng(2)
    g = BevGrid(rng.normal(size=(3, 4, 4)), GridSpec(3, 4, 0.0, 0.0, 1.0))
    q = rng.normal(size=(2, 5, 4))
    out = generate_mask(g, q)
    assert out.shape == (2, 5, 3, 4)
    assert np.allclose(out[1, 2], generate_mask(g, q[1, 2]), rtol=0, atol=1e-12)
    coords = sample_mask_points(out, AXIS_ROWS)
    assert coords.shape == (2, 5, 3)
    assert np.allclose(coords[0, 3], sample_mask_points(out[0, 3], AXIS_ROWS), rtol=0, atol=1e-12)


# the existence heads at the full-pair shape, split over their output columns
# and unsplit, for each instance count given; exits 1 on the first row whose
# bits differ
EXISTENCE_COLUMNS = """
import sys
import numpy as np
from lanetopo import bev
from lanetopo.bev import mlp_forward, sigmoid
from lanetopo.config import PipelineConfig
from lanetopo.points_mask import AXIS_COLUMNS, AXIS_ROWS, predict_existence
from lanetopo.weights import init_model_weights

cfg = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64)
mh = init_model_weights(cfg, seed=3).mask_head
rng = np.random.default_rng(4)
for n in map(int, sys.argv[1:]):
    logits = rng.normal(0.0, 5.0, size=(n, cfg.grid.h, cfg.grid.w))
    assert n * cfg.grid.h * cfg.grid.w >= bev.ROW_SPLIT
    for axis, head in ((AXIS_COLUMNS, mh.exist_col), (AXIS_ROWS, mh.exist_row)):
        whole = sigmoid(mlp_forward(head, logits.reshape(n, -1)))
        if not np.array_equal(predict_existence(logits, head, axis), whole):
            sys.exit(f"{axis} existence of {n} instances differs from the unsplit product")
"""


def test_the_existence_heads_column_halves_give_the_unsplit_bits_at_one_thread():
    # 24 real rows (fuse), 48 rows (all of the full-pair shape), odd counts
    # and the full size's 300 queries
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EXISTENCE_COLUMNS, "24", "48", "25", "15", "300"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
