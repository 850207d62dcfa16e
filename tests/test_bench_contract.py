"""The benchmark's traced names stay bound to the program.

``perfbench/spans.py`` wraps the functions named in ``SPANS`` and binds each
counter's arguments by parameter name. A deleted or renamed function, or a
renamed counted parameter, does not stop a traced benchmark run: its metrics
just leave the result line, which must carry exactly the ``per_layer`` names
of ``BENCHMARK.json``. These tests turn that into a tier-1 failure.
"""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

from lanetopo import config, pipeline, scene, weights

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402

# added by perfbench/run.py from paired untraced/traced runs, not by summarize
RUNNER_METRICS = {"trace.overhead_s", "trace.overhead_share"}

# traced names no benchmark op reaches any more: the batched Frechet matrix
# replaced the per-pair calls
UNREACHED = {"geometry.discrete_frechet"}


def per_layer_names() -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["per_layer"]} - RUNNER_METRICS


def test_every_span_names_a_lanetopo_function():
    for full in spans.SPANS:
        mod_name, fn_name = full.split(".")
        module = importlib.import_module(f"lanetopo.{mod_name}")
        assert callable(getattr(module, fn_name, None)), full


@pytest.fixture()
def unwrapped_afterwards():
    """Put back every lanetopo module attribute the tracer replaces."""
    saved = {
        name: dict(vars(m)) for name, m in list(sys.modules.items())
        if name == "lanetopo" or name.startswith("lanetopo.")
    }
    yield
    for name, attrs in saved.items():
        module = sys.modules[name]
        for attr, value in attrs.items():
            if getattr(module, attr, None) is not value:
                setattr(module, attr, value)


def test_a_traced_desk_pass_reports_every_per_layer_metric(tmp_path, unwrapped_afterwards):
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = spans.SETUP_OP
    cfg = config.PipelineConfig.desk()
    cfg_sd = config.PipelineConfig.desk(sd=True)
    w = weights.init_model_weights(cfg)
    sc = scene.synth_scene(3, scene.SceneParams(n_lanes=1, intersections=1))
    pred_path = tmp_path / "pred.json"

    def full_pair_op():
        result = pipeline.run_pipeline(sc, cfg_sd, w)
        pred_path.write_text(pipeline.dump_predictions_json(result.outputs))

    ops = {
        "0/0": lambda: pipeline.ablation_grid(sc, cfg, w),
        "0/1": full_pair_op,
        "0/2": lambda: pipeline.evaluate_prediction_file(pred_path, sc, cfg_sd),
    }
    walls = {}
    for key, op in ops.items():
        tracer.op = key
        start = time.perf_counter()
        op()
        walls[key] = time.perf_counter() - start
    metrics = spans.summarize(tracer, walls)

    assert tracer.missing == []
    assert tracer.counter_errors == {}
    assert set(metrics) == per_layer_names()
    never_called = {
        name for name in spans.SPANS if metrics[f"{name}.calls"]["value"] == 0
    }
    assert never_called == UNREACHED
