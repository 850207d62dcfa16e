"""Input generators are deterministic per seed; every output check passes the
program's real output and rejects a tampered one."""

import copy
import math

import numpy as np
import pytest

import workloads
from lanetopo import config, pipeline, weights
from lanetopo.geometry import Polyline


def scene_points(sc):
    return [lane.pts for lane in sc.centerlines]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOAD_IDS))
def test_scenes_are_a_function_of_seed_and_position(name):
    for shape in workloads.SHAPES:
        a = workloads.make_scene(7, name, 2, 1, shape)
        b = workloads.make_scene(7, name, 2, 1, shape)
        c = workloads.make_scene(8, name, 2, 1, shape)
        assert all(np.array_equal(x, y) for x, y in zip(scene_points(a), scene_points(b)))
        assert not np.array_equal(scene_points(a)[0], scene_points(c)[0])


def test_cycles_repeat_the_same_shapes():
    wl = workloads.DeskAblation(3)
    for index in (0, 5):
        lanes = [item.payload.n_lanes for item in wl.cycle(index)]
        assert lanes == [1, 2, 3]


def test_near_documents_are_deterministic_per_seed(tmp_path):
    a = workloads.EvalNear(4, workdir=tmp_path / "a")
    b = workloads.EvalNear(4, workdir=tmp_path / "b")
    c = workloads.EvalNear(5, workdir=tmp_path / "c")
    for wl in (a, b, c):
        wl.workdir.mkdir()
        wl.setup()
    for x, y, z in zip(a.cycle(1), b.cycle(1), c.cycle(1)):
        assert x.payload[0].read_bytes() == y.payload[0].read_bytes()
        assert x.payload[0].read_bytes() != z.payload[0].read_bytes()


def test_near_documents_score_between_zero_and_one_and_the_exact_one_scores_one(tmp_path):
    wl = workloads.EvalNear(2, workdir=tmp_path)
    wl.setup()
    (exact,) = wl.warmup()
    report = wl.op(exact)
    assert wl.check(exact, report) == []
    assert (report.det_l, report.top_ll, report.ap_l) == pytest.approx((1.0, 1.0, 1.0))
    dets = []
    for item in wl.cycle(0):
        report = wl.op(item)
        assert wl.check(item, report) == []
        dets.append(report.det_l)
    assert 0.0 < max(dets) < 1.0


# --- desk-ablation check -----------------------------------------------------------


@pytest.fixture(scope="module")
def ablation_rows():
    wl = workloads.DeskAblation(1)
    wl.setup()
    return wl.op(wl.cycle(0)[0])


def test_ablation_check_passes_the_program_output(ablation_rows):
    assert workloads.check_ablation_rows(ablation_rows) == []


def _run_a_rejected_row(rows):
    row = next(r for r in rows if "error" in r)
    del row["error"]
    row.update(det_l=0.5, top_ll=0.5, ap_l=0.5)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda rows: rows[0].update(error="boom"),
        _run_a_rejected_row,
        lambda rows: rows[-1].update(det_l=1.5),
        lambda rows: rows[-1].update(ap_l=math.nan),
        lambda rows: rows[-1].pop("top_ll"),
        lambda rows: rows.pop(),
        lambda rows: rows[0].update(sd=not rows[0]["sd"]),
    ],
    ids=["extra-error", "missing-error", "above-one", "nan", "missing-metric", "row-dropped",
         "duplicate-combination"],
)
def test_ablation_check_rejects_tampered_rows(ablation_rows, tamper):
    rows = copy.deepcopy(ablation_rows)
    tamper(rows)
    assert workloads.check_ablation_rows(rows) != []


# --- full-pair check -------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run():
    cfg = config.PipelineConfig.desk(sd=True)
    sc = workloads.make_scene(0, "full-pair", 0, 0, (1, 0))
    result = pipeline.run_pipeline(sc, cfg, weights.init_model_weights(cfg))
    return cfg, result, pipeline.dump_predictions_json(result.outputs)


def test_full_pair_check_passes_the_program_output(desk_run):
    cfg, result, text = desk_run
    digest = workloads.output_digest(result.outputs)
    assert workloads.check_full_pair(result.outputs, result.report, text, cfg, digest) == []
    assert workloads.check_full_pair(result.outputs, result.report, text, cfg, None) == []


def _shift_point(outputs):
    p = outputs.predictions[3]
    pts = p.points.pts.copy()
    pts[2, 0] += 1e-6
    p.points = Polyline(pts)


def _nan_adjacency(outputs):
    outputs.adjacency = outputs.adjacency.copy()
    outputs.adjacency[1, 2] = math.nan


def _flip_mask_cell(outputs):
    outputs.mask_logits = outputs.mask_logits.copy()
    outputs.mask_logits[5, 0, 0] = -outputs.mask_logits[5, 0, 0] or 1.0


@pytest.mark.parametrize(
    "tamper",
    [
        _shift_point,
        _nan_adjacency,
        _flip_mask_cell,
        lambda o: o.predictions.pop(),
        lambda o: setattr(o.predictions[0], "score", 1.25),
        lambda o: setattr(o, "mask_logits", o.mask_logits[:, :-1]),
        lambda o: setattr(o, "adjacency", o.adjacency.T.copy()),
    ],
    ids=["moved-point", "nan-adjacency", "mask-cell", "missing-prediction", "score-range",
         "mask-shape", "adjacency-transposed"],
)
def test_full_pair_check_rejects_tampered_outputs(desk_run, tamper):
    cfg, result, text = desk_run
    digest = workloads.output_digest(result.outputs)
    outputs = copy.deepcopy(result.outputs)
    tamper(outputs)
    assert workloads.check_full_pair(outputs, result.report, text, cfg, digest) != []


def test_full_pair_check_rejects_an_empty_file_and_a_bad_report(desk_run):
    cfg, result, text = desk_run
    assert workloads.check_full_pair(result.outputs, result.report, "", cfg, None) != []
    report = copy.deepcopy(result.report)
    report.top_ll = -0.1
    assert workloads.check_full_pair(result.outputs, report, text, cfg, None) != []


# --- eval-near check -------------------------------------------------------------


class Report:
    def __init__(self, det_l=0.5, top_ll=0.25, ap_l=0.75):
        self.det_l, self.top_ll, self.ap_l = det_l, top_ll, ap_l
        self.det_per_threshold = {"1": 0.25, "2": 0.5, "3": 0.75}
        self.ap_per_threshold = {"0.5": 1.0, "0.75": 0.5}


def test_eval_check_accepts_a_matching_report():
    recorded = workloads.report_digest(workloads.report_values(Report()))
    assert workloads.check_eval_report(Report(), recorded, exact=False) == []
    assert workloads.check_eval_report(Report(1.0, 1.0, 1.0), None, exact=True) == []


def test_eval_check_rejects_tampered_reports():
    recorded = workloads.report_digest(workloads.report_values(Report()))
    assert workloads.check_eval_report(Report(det_l=0.5 + 1e-6), recorded, exact=False)
    tampered = Report()
    tampered.ap_per_threshold["0.75"] = 0.25
    assert workloads.check_eval_report(tampered, recorded, exact=False)
    assert workloads.check_eval_report(Report(1.0, 0.999, 1.0), None, exact=True)
    assert workloads.check_eval_report(Report(det_l=1.2), None, exact=False)
    assert workloads.check_eval_report(Report(ap_l=math.nan), None, exact=False)
    assert workloads.check_eval_report(object(), None, exact=False)


def test_the_runner_accepts_exactly_the_defined_workloads():
    import run

    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(workloads.WORKLOAD_IDS)
