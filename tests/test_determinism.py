"""The determinism contract of the predictions file (README, File formats).

At a fixed BLAS thread count repeated runs are byte-identical. Across thread
counts each value differs by at most 1e-12 of its scale: points of the
working area's span, mask logits of the largest logit of the run, scores and
adjacency absolutely. The thread count is fixed when BLAS loads, so each run
is a fresh interpreter.
"""

import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

from lanetopo.config import PipelineConfig

SRC = Path(__file__).resolve().parents[1] / "src"

# one run of the config given as JSON, on synth_scene(cfg.seed); writes the
# predictions JSON and the raw mask logits next to the path it is given
CHILD = """
import json
import sys
import numpy as np
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import dump_predictions_json, run_pipeline
from lanetopo.scene import synth_scene
from lanetopo.weights import init_model_weights

cfg = PipelineConfig.from_dict(json.loads(sys.argv[2]))
outputs = run_pipeline(synth_scene(cfg.seed), cfg, init_model_weights(cfg)).outputs
with open(sys.argv[1] + ".json", "w") as fh:
    fh.write(dump_predictions_json(outputs))
np.save(sys.argv[1] + ".npy", outputs.mask_logits)
"""

# the readouts of the real rows, as fuse asks for them, and the first n_real
# of the all-row readouts, for each config given as JSON, on
# synth_scene(cfg.seed); saves both. fuse is a pure function of the real rows'
# readouts, so equal readouts give equal fused points.
READOUT_CHILD = """
import json
import sys
import numpy as np
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import infer, sd_features
from lanetopo.scene import render_bev_features, synth_scene
from lanetopo.weights import init_model_weights

arrays = {}
for k, fields in enumerate(json.loads(sys.argv[2])):
    cfg = PipelineConfig.from_dict(fields)
    scene, weights = synth_scene(cfg.seed), init_model_weights(cfg)
    b = render_bev_features(scene, cfg)
    out = infer(sd_features(b, scene, weights) if cfg.sd else b, cfg, weights)
    for axis, seq in (("col", out.col_readouts), ("row", out.row_readouts)):
        for name, readouts in (("real", seq.rows(slice(cfg.n_real))),
                               ("all", list(seq)[:cfg.n_real])):
            for field in ("coords", "existence", "direction"):
                arrays[f"{name}_{k}_{axis}_{field}"] = np.array(
                    [getattr(r, field) for r in readouts])
np.savez(sys.argv[1], **arrays)
"""


def run_fresh(code: str, threads: int, *args: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True, timeout=300)


def run_child(out: Path, cfg: PipelineConfig, threads: int) -> tuple[bytes, bytes]:
    run_fresh(CHILD, threads, str(out), json.dumps(cfg.to_dict()))
    return Path(f"{out}.json").read_bytes(), Path(f"{out}.npy").read_bytes()


def numeric_content(doc_bytes: bytes, logits_bytes: bytes) -> dict[str, np.ndarray]:
    doc = json.loads(doc_bytes)
    return {
        "points": np.array([p["points"] for p in doc["predictions"]]),
        "scores": np.array([p["score"] for p in doc["predictions"]]),
        "adjacency": np.array(doc["adjacency"]),
        "mask_logits": np.load(io.BytesIO(logits_bytes)),
    }


def test_bytes_repeat_at_one_thread_and_values_agree_across_thread_counts(tmp_path):
    cfg = PipelineConfig.desk(seed=3, sd=True)
    first = run_child(tmp_path / "a", cfg, threads=1)
    second = run_child(tmp_path / "b", cfg, threads=1)
    assert first == second

    two = run_child(tmp_path / "c", cfg, threads=2)
    ref, other = numeric_content(*first), numeric_content(*two)
    for key, value in ref.items():
        assert value.shape == other[key].shape, key
        assert np.max(np.abs(value - other[key])) <= 1e-12, key


def test_full_size_values_agree_across_thread_counts_within_their_scale(tmp_path):
    """The default config with the SD map on, whose large products OpenBLAS
    splits across threads: points differ by up to about 2e-12 m there."""
    cfg = PipelineConfig(sd=True)
    ref = numeric_content(*run_child(tmp_path / "a", cfg, threads=1))
    other = numeric_content(*run_child(tmp_path / "b", cfg, threads=2))
    scale = {
        "points": max(cfg.grid.h, cfg.grid.w) * cfg.grid.resolution,
        "scores": 1.0,
        "adjacency": 1.0,
        "mask_logits": np.max(np.abs(ref["mask_logits"])),
    }
    for key, value in ref.items():
        assert value.shape == other[key].shape, key
        assert np.max(np.abs(value - other[key])) <= 1e-12 * scale[key], key


def test_real_row_readouts_keep_the_bits_at_one_thread(tmp_path):
    """The readouts fuse computes equal the all-row ones field by field at
    full size (seeds 0 and 7) and at the desk and full-pair benchmark shapes,
    each with the SD map off and on."""
    configs = [
        cfg(seed=seed, sd=sd)
        for cfg, seed in (
            (PipelineConfig, 0),
            (PipelineConfig, 7),
            (PipelineConfig.desk, 7),
            # the full-pair benchmark's shape: 48 queries and 32 channels
            (partial(PipelineConfig, n_real=24, n_virtual=24, channels=32, ffn_dim=64), 7),
        )
        for sd in (False, True)
    ]
    out = tmp_path / "readouts.npz"
    run_fresh(READOUT_CHILD, 1, str(out), json.dumps([c.to_dict() for c in configs]))
    arrays = np.load(out)
    real = [key for key in arrays.files if key.startswith("real_")]
    assert len(real) == len(configs) * 2 * 3
    for key in real:
        assert np.array_equal(arrays[key], arrays["all_" + key[len("real_"):]]), key
