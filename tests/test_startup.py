"""Start-up: which SciPy submodules a fresh process loads, and when."""

import json
import os
import subprocess
import sys
from pathlib import Path

from lanetopo.config import PipelineConfig
from lanetopo.pipeline import run_pipeline, save_predictions
from lanetopo.scene import save_scene, synth_scene
from lanetopo.weights import init_model_weights

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_PARTS = ("scipy.sparse", "scipy.special", "scipy.optimize")

# each step prints which of SCIPY_PARTS it left loaded
STEPS = """
import json, sys
def loaded():
    print(json.dumps([m for m in {parts!r} if m in sys.modules]), flush=True)
import lanetopo, lanetopo.cli, lanetopo.pipeline
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import evaluate_prediction_file, run_pipeline
from lanetopo.scene import load_scene
from lanetopo.weights import init_model_weights
loaded()
cfg = PipelineConfig.desk()
scene = load_scene({scene!r})
evaluate_prediction_file({pred!r}, scene, cfg)
loaded()
run_pipeline(scene, cfg, init_model_weights(cfg, 0))
loaded()
"""


def test_scoring_loads_no_scipy_and_the_first_run_loads_only_what_it_uses(tmp_path):
    cfg = PipelineConfig.desk()
    scene = synth_scene(3)
    scene_path, pred_path = tmp_path / "scene.json", tmp_path / "pred.json"
    save_scene(scene, scene_path)
    save_predictions(run_pipeline(scene, cfg, init_model_weights(cfg, 0)).outputs, pred_path)
    code = STEPS.format(parts=SCIPY_PARTS, scene=str(scene_path), pred=str(pred_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    after_import, after_eval, after_run = map(json.loads, done.stdout.splitlines())
    assert after_import == []
    assert after_eval == []
    assert after_run == ["scipy.sparse", "scipy.special"]
