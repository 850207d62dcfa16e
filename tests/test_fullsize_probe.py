"""The full-size probe in ``bench/fullsize.py``, run on the desk config."""

import sys
from pathlib import Path

from lanetopo.config import PipelineConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import fullsize  # noqa: E402


def test_the_probe_reports_one_traced_desk_op_in_a_fresh_process():
    cfg = PipelineConfig.desk()
    r = fullsize.probe(cfg)
    assert r["config"] == cfg.to_dict()
    assert r["blas_threads"] == 1
    assert 0 < r["import_s"] and 0 < r["init_s"] and 0 < r["op_s"]
    assert 0 < r["cpu_s"] and 0 <= r["sys_s"] <= r["cpu_s"]
    assert isinstance(r["minor_faults"], int) and r["minor_faults"] >= 0
    assert r["ru_maxrss_kb"] > 0
    spans = r["spans"]
    for name in ("weights.init_model_weights", "pipeline.run_pipeline",
                 "pipeline.dump_predictions_json"):
        assert spans[name]["calls"] == 1, name
    assert 0 < spans["pipeline.run_pipeline"]["s"] < r["op_s"]
    assert spans["weights.init_model_weights"]["s"] <= r["init_s"]
    assert all(0 <= s["self_s"] <= s["s"] + 1e-9 for s in spans.values())
    assert r["counters"]["pipeline.pred_bytes"] == r["pred_bytes"] > 0
    assert r["counter_errors"] == {}


def test_an_unpinned_probe_sets_no_blas_variable(monkeypatch):
    for var in fullsize.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    r = fullsize.probe(PipelineConfig.desk(), pin_blas=False)
    assert r["blas_threads"] is None
    assert r["spans"]["pipeline.run_pipeline"]["calls"] == 1
