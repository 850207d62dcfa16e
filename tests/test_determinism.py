"""The determinism contract of the predictions file (README, File formats).

At a fixed BLAS thread count repeated runs are byte-identical; across thread
counts values differ by at most 1e-12. The thread count is fixed when BLAS
loads, so each run is a fresh interpreter.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# one desk run with the SD map on; writes the predictions JSON and the raw
# mask logits next to the path it is given
CHILD = """
import sys
import numpy as np
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import dump_predictions_json, run_pipeline
from lanetopo.scene import synth_scene
from lanetopo.weights import init_model_weights

cfg = PipelineConfig.desk(seed=3, sd=True)
outputs = run_pipeline(synth_scene(3), cfg, init_model_weights(cfg)).outputs
with open(sys.argv[1] + ".json", "w") as fh:
    fh.write(dump_predictions_json(outputs))
np.save(sys.argv[1] + ".npy", outputs.mask_logits)
"""


def run_child(out: Path, threads: int) -> tuple[bytes, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env, check=True, timeout=300)
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
    first = run_child(tmp_path / "a", threads=1)
    second = run_child(tmp_path / "b", threads=1)
    assert first == second

    two = run_child(tmp_path / "c", threads=2)
    ref, other = numeric_content(*first), numeric_content(*two)
    for key, value in ref.items():
        assert value.shape == other[key].shape, key
        assert np.max(np.abs(value - other[key])) <= 1e-12, key
