"""Command-line interface round-trips."""

import base64
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lanetopo.cli import main
from lanetopo.config import PipelineConfig
from lanetopo.pipeline import load_predictions
from lanetopo.scene import load_bev, load_scene, render_bev_features
from lanetopo.weights import (
    init_model_weights,
    model_weights_from_tensors,
    model_weights_to_tensors,
    save_model_weights,
)
from test_config import REMOVED_FIELDS

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def desk_config_path(tmp_path):
    path = tmp_path / "config.json"
    PipelineConfig.desk(seed=3).save(path)
    return str(path)


def test_synth_run_eval_viz_round_trip(tmp_path, desk_config_path, capsys):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    report = tmp_path / "report.json"
    svg = tmp_path / "plot.svg"

    assert main(["synth", "--seed", "9", "--out", str(scene)]) == 0
    assert scene.exists()

    assert (
        main(
            [
                "run",
                "--scene",
                str(scene),
                "--config",
                desk_config_path,
                "--out",
                str(pred),
                "--report",
                str(report),
            ]
        )
        == 0
    )
    doc = json.loads(pred.read_text())
    assert doc["kind"] == "lanetopo-predictions"
    assert json.loads(report.read_text()).keys() >= {"det_l", "top_ll", "ap_l"}

    out2 = tmp_path / "report2.json"
    assert (
        main(
            [
                "eval",
                "--pred",
                str(pred),
                "--gt",
                str(scene),
                "--config",
                desk_config_path,
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    assert json.loads(out2.read_text())["det_l"] == json.loads(report.read_text())["det_l"]

    assert main(["viz", "--scene", str(scene), "--pred", str(pred), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_run_twice_is_byte_identical(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    main(["synth", "--seed", "4", "--out", str(scene)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(out)])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_render_bev_and_run_from_file(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    bev = tmp_path / "bev.bin"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "5", "--out", str(scene)])
    assert (
        main(
            [
                "render-bev",
                "--scene",
                str(scene),
                "--config",
                desk_config_path,
                "--noise",
                "0.0",
                "--out",
                str(bev),
            ]
        )
        == 0
    )
    assert bev.exists()
    assert (
        main(
            [
                "run",
                "--scene",
                str(scene),
                "--config",
                desk_config_path,
                "--bev",
                str(bev),
                "--out",
                str(pred),
            ]
        )
        == 0
    )


def test_invalid_toggle_combination_fails(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    main(["synth", "--seed", "6", "--out", str(scene)])
    cfg = PipelineConfig.load(desk_config_path)
    assert cfg.pgm and cfg.pmf
    code = main(
        [
            "run",
            "--scene",
            str(scene),
            "--config",
            desk_config_path,
            "--toggle-pgm",  # pgm off while pmf stays on
            "--out",
            str(tmp_path / "pred.json"),
        ]
    )
    assert code == 2


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("LANETOPO_OUT_DIR", str(tmp_path))
    monkeypatch.setenv("LANETOPO_SEED", "17")
    assert main(["synth", "--out", "nested/scene.json"]) == 0
    doc = json.loads((tmp_path / "nested" / "scene.json").read_text())
    assert doc["seed"] == 17


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(adjacency=[[0.0]]), "adjacency must have shape"),
        (lambda doc: doc["predictions"][0].update(score=float("nan")), "score must be finite"),
        (lambda doc: doc["adjacency"][0].__setitem__(0, float("inf")), "adjacency must be finite"),
        (lambda doc: doc.update(
            schema_version=1,
            masks={"h": 50, "w": 100, "encoding": "rle-0.5", "instances": [[]] * 32},
        ), "predictions schema_version must be 2, got 1"),
    ],
)
def test_eval_rejects_malformed_prediction_file(tmp_path, desk_config_path, capsys, edit, message):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(pred.read_text())
    edit(doc)
    pred.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(scene), "--config", desk_config_path,
         "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid prediction file: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_rejects_a_bev_file_with_the_wrong_channel_count(tmp_path, desk_config_path, capsys):
    scene = tmp_path / "scene.json"
    narrow = tmp_path / "narrow.json"
    bev = tmp_path / "bev.bin"
    main(["synth", "--seed", "5", "--out", str(scene)])
    PipelineConfig.desk(channels=16).save(narrow)
    main(["render-bev", "--scene", str(scene), "--config", str(narrow), "--out", str(bev)])
    capsys.readouterr()
    pred = tmp_path / "pred.json"
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--bev", str(bev),
         "--out", str(pred)]
    )
    assert code == 2
    err = _one_line_error(capsys, "invalid BEV file: ")
    assert "has 16 channels, config expects 32" in err
    assert not pred.exists()


@pytest.mark.parametrize("noise", [None, "0", "0.2"])
def test_render_bev_noise_overrides_the_config_sigma(tmp_path, desk_config_path, noise):
    scene = tmp_path / "scene.json"
    bev = tmp_path / "bev.bin"
    main(["synth", "--seed", "5", "--out", str(scene)])
    extra = [] if noise is None else ["--noise", noise]
    main(["render-bev", "--scene", str(scene), "--config", desk_config_path, "--out", str(bev),
          *extra])
    cfg = PipelineConfig.load(desk_config_path)
    sigma = cfg.noise_sigma if noise is None else float(noise)
    expected = render_bev_features(load_scene(scene), replace(cfg, noise_sigma=sigma))
    assert np.array_equal(load_bev(bev, cfg.grid).data, expected.data)


def test_run_rejects_a_truncated_bev_file(tmp_path, desk_config_path, capsys):
    scene = tmp_path / "scene.json"
    bev = tmp_path / "bev.bin"
    main(["synth", "--seed", "5", "--out", str(scene)])
    main(["render-bev", "--scene", str(scene), "--config", desk_config_path, "--out", str(bev)])
    bev.write_bytes(bev.read_bytes()[:-1])
    capsys.readouterr()
    pred = tmp_path / "pred.json"
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--bev", str(bev),
         "--out", str(pred)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid BEV file: ") and "bytes, got" in err
    assert err.count("\n") == 1
    assert not pred.exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_scene_with_a_non_binary_adjacency_exits_2(tmp_path, desk_config_path, capsys, command):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(scene.read_text())
    doc["adjacency"][0][0] = 7
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    if command == "run":
        argv = ["run", "--scene", str(scene), "--out", str(out)]
    else:
        argv = ["eval", "--pred", str(pred), "--gt", str(scene), "--out", str(out)]
    assert main(argv + ["--config", desk_config_path]) == 2
    err = capsys.readouterr().err
    assert err == "invalid scene file: adjacency entries must be 0 or 1\n"
    assert not out.exists()


def _one_line_error(capsys, prefix: str) -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def _with_nan(name: str):
    """A weights-document edit that sets the first entry of tensor ``name`` to NaN."""
    def edit(doc):
        entry = doc["tensors"][name]
        tensor = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        tensor[0] = np.nan
        entry["data"] = base64.b64encode(tensor.tobytes()).decode("ascii")
    return edit


@pytest.mark.parametrize(
    "content, message",
    [
        ('{"format": "x"}', "unsupported weights format: 'x'"),
        ("{not json", "Expecting property name"),
        ('{"format": "lanetopo-weights-v1"}', "weights document lacks key 'tensors'"),
        (None, "No such file or directory"),
        (lambda doc: doc["tensors"].update(semantic_table=5),
         "tensors.semantic_table must be an object, got int"),
        (lambda doc: doc["tensors"]["semantic_table"].update(data=5),
         "tensors.semantic_table.data must be a base64 string, got int"),
        (lambda doc: doc["tensors"]["semantic_table"].update(shape="x"),
         "tensors.semantic_table.shape must list non-negative integers, got 'x'"),
        (lambda doc: doc["meta"].update(decoder_layers="x"),
         "meta.decoder_layers must be a non-negative integer, got 'x'"),
        (lambda doc: doc["meta"].update(mlp_activations=[]),
         "meta.mlp_activations must be an object, got list"),
        (_with_nan("decoder.real_queries"), "tensors.decoder.real_queries must be finite"),
        (_with_nan("decoder.layers.0.deform.w_offset"),
         "tensors.decoder.layers.0.deform.w_offset must be finite"),
    ],
    ids=["foreign-format", "malformed-json", "missing-key", "missing-path", "number-entry",
         "number-data", "string-shape", "string-layer-count", "list-activations",
         "nan-query", "nan-deform-offset"],
)
def test_run_rejects_a_bad_weights_file(tmp_path, desk_config_path, capsys, content, message):
    scene = tmp_path / "scene.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "5", "--out", str(scene)])
    if callable(content):
        save_model_weights(init_model_weights(PipelineConfig.load(desk_config_path)), weights)
        doc = json.loads(weights.read_text())
        content(doc)
        content = json.dumps(doc)
    if content is not None:
        weights.write_text(content)
    capsys.readouterr()
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--weights", str(weights),
         "--out", str(pred)]
    )
    assert code == 2
    assert message in _one_line_error(capsys, "invalid weights file: ")
    assert not pred.exists()


def test_run_rejects_weights_that_do_not_fit_the_config(tmp_path, desk_config_path, capsys):
    scene = tmp_path / "scene.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "5", "--out", str(scene)])
    save_model_weights(init_model_weights(PipelineConfig.desk(n_real=8)), weights)
    capsys.readouterr()
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--weights", str(weights),
         "--out", str(pred)]
    )
    assert code == 2
    err = _one_line_error(capsys, "invalid weights file: ")
    assert "decoder.init_ref_logits has shape (24, 2), config expects (32, 2)" in err
    assert not pred.exists()


def test_run_accepts_weights_that_fit_the_config(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    weights = tmp_path / "w.json"
    main(["synth", "--seed", "5", "--out", str(scene)])
    save_model_weights(init_model_weights(PipelineConfig.load(desk_config_path)), weights)
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--weights", str(weights),
         "--out", str(tmp_path / "pred.json")]
    )
    assert code == 0


@pytest.mark.parametrize("key", ["predictions", "adjacency"])
def test_eval_names_a_missing_document_key(tmp_path, desk_config_path, capsys, key):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(pred.read_text())
    del doc[key]
    pred.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(scene), "--config", desk_config_path,
         "--out", str(out)]
    )
    assert code == 2
    err = _one_line_error(capsys, "invalid prediction file: ")
    assert f"prediction document lacks key '{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_eval_rejects_an_unreadable_prediction_path(tmp_path, desk_config_path, capsys, unreadable):
    scene = tmp_path / "scene.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    pred = tmp_path / "pred.json"
    if unreadable == "directory":
        pred.mkdir()
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(scene), "--config", desk_config_path,
         "--out", str(out)]
    )
    assert code == 2
    _one_line_error(capsys, "invalid prediction file: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_scene_missing_a_key_exits_2(tmp_path, desk_config_path, capsys, command):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(scene.read_text())
    del doc["sd_instances"]
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    if command == "run":
        argv = ["run", "--scene", str(scene), "--out", str(out)]
    else:
        argv = ["eval", "--pred", str(pred), "--gt", str(scene), "--out", str(out)]
    assert main(argv + ["--config", desk_config_path]) == 2
    err = capsys.readouterr().err
    assert err == "invalid scene file: scene document lacks key 'sd_instances'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "run-sd", "eval", "viz", "render-bev"])
def test_a_scene_with_an_unknown_sd_type_exits_2(tmp_path, desk_config_path, capsys, command):
    """An SD semantic type outside 1..N_SEMANTIC_TYPES is refused when the
    scene loads, whether or not the run reads the SD map."""
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    sd_config = tmp_path / "sd-config.json"
    PipelineConfig.desk(sd=True).save(sd_config)
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(scene.read_text())
    doc["sd_instances"][0]["semantic_type"] = 9
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "run": ["run", "--scene", str(scene), "--config", desk_config_path],
        "run-sd": ["run", "--scene", str(scene), "--config", str(sd_config)],
        "eval": ["eval", "--pred", str(pred), "--gt", str(scene), "--config", desk_config_path],
        "viz": ["viz", "--scene", str(scene)],
        "render-bev": ["render-bev", "--scene", str(scene), "--config", desk_config_path],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid scene file: sd_instances[0].semantic_type must be in 1..3, got 9\n"
    )
    assert not out.exists()


def _predictions_document_with_number_entries(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    doc = json.loads(pred.read_text())
    doc["predictions"] = [1, 2]
    pred.write_text(json.dumps(doc))
    return scene, pred


def test_eval_rejects_non_object_prediction_entries(tmp_path, desk_config_path, capsys):
    scene, pred = _predictions_document_with_number_entries(tmp_path, desk_config_path)
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(scene), "--config", desk_config_path,
         "--out", str(out)]
    )
    assert code == 2
    err = _one_line_error(capsys, "invalid prediction file: ")
    assert "predictions[0] must be an object, got int" in err
    assert not out.exists()


def test_viz_validates_the_prediction_file(tmp_path, desk_config_path, capsys):
    scene, pred = _predictions_document_with_number_entries(tmp_path, desk_config_path)
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    code = main(["viz", "--scene", str(scene), "--pred", str(pred), "--out", str(svg)])
    assert code == 2
    err = _one_line_error(capsys, "invalid prediction file: ")
    assert "predictions[0] must be an object, got int" in err
    assert not svg.exists()


def test_viz_draws_the_predictions_above_the_score_floor(tmp_path, desk_config_path):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    scores = [p["score"] for p in json.loads(pred.read_text())["predictions"]]
    floor = sorted(scores)[len(scores) // 2]
    svg = tmp_path / "plot.svg"
    bare = tmp_path / "bare.svg"
    assert main(["viz", "--scene", str(scene), "--out", str(bare)]) == 0
    argv = ["viz", "--scene", str(scene), "--pred", str(pred), "--out", str(svg)]
    assert main(argv + ["--min-score", str(floor)]) == 0
    drawn = svg.read_text().count("stroke-dasharray")
    assert drawn == sum(s >= floor for s in scores) > 0
    assert bare.read_text().count("stroke-dasharray") == 0


def test_run_rejects_a_weights_file_whose_tensors_are_a_list(tmp_path, desk_config_path, capsys):
    scene = tmp_path / "scene.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "5", "--out", str(scene)])
    weights.write_text('{"format": "lanetopo-weights-v1", "tensors": [], "meta": {}}')
    capsys.readouterr()
    code = main(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--weights", str(weights),
         "--out", str(pred)]
    )
    assert code == 2
    err = _one_line_error(capsys, "invalid weights file: ")
    assert "tensors and meta must be objects" in err
    assert not pred.exists()


@pytest.mark.parametrize(
    "content",
    ["{not json", "[1, 2]", '{"channels": "x"}', '{"pgm": "no"}', '{"loss": {"zz": 1}}',
     '{"grid_h": 0}', '{"resolution": NaN}', '{"x_min": NaN}', '{"sample_points": 0}',
     '{"sd_sample_points": 0, "sd": true}', '{"det_thresholds": []}',
     '{"det_thresholds": [1%s]}' % ("0" * 400), '{"resolution": 1%s}' % ("0" * 400),
     '{"sd_layers": -1}', '{"ffn_dim": -1}', '{"ffn_dim": 0}', '{"channels": 0}',
     '{"grid_h": 1}', '{"grid_w": 1}'],
    ids=["malformed-json", "list", "string-int", "string-bool", "unknown-loss-key", "empty-grid",
         "nan-resolution", "nan-x-min", "no-sample-points", "no-sd-sample-points",
         "no-det-thresholds", "huge-int-det-threshold", "huge-int-resolution",
         "negative-sd-layers", "negative-ffn-dim", "no-ffn-dim", "no-channels", "one-row",
         "one-column"],
)
@pytest.mark.parametrize("command", ["run", "eval", "render-bev"])
def test_a_bad_config_file_exits_2(tmp_path, desk_config_path, capsys, command, content):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    config = tmp_path / "bad-config.json"
    config.write_text(content)
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "run": ["run", "--scene", str(scene)],
        "eval": ["eval", "--pred", str(pred), "--gt", str(scene)],
        "render-bev": ["render-bev", "--scene", str(scene)],
    }[command]
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
    _one_line_error(capsys, "invalid config file: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["viz", "render-bev"])
def test_a_missing_scene_file_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.svg"
    code = main([command, "--scene", str(tmp_path / "missing.json"), "--out", str(out)])
    assert code == 2
    assert "No such file or directory" in _one_line_error(capsys, "invalid scene file: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval", "render-bev"])
def test_a_config_with_the_removed_threshold_fields_exits_2(
    tmp_path, desk_config_path, capsys, command
):
    scene = tmp_path / "scene.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    main(["run", "--scene", str(scene), "--config", desk_config_path, "--out", str(pred)])
    config = tmp_path / "old-config.json"
    config.write_text(json.dumps({**PipelineConfig.desk().to_dict(), **REMOVED_FIELDS}))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {
        "run": ["run", "--scene", str(scene)],
        "eval": ["eval", "--pred", str(pred), "--gt", str(scene)],
        "render-bev": ["render-bev", "--scene", str(scene)],
    }[command]
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
    err = _one_line_error(capsys, "invalid config file: ")
    assert err == f"invalid config file: unknown config fields: {sorted(REMOVED_FIELDS)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("render-bev", "--noise", "inf"),
        ("render-bev", "--noise", "nan"),
        ("render-bev", "--noise", "-1"),
        ("gradcheck", "--points", "0"),
        ("gradcheck", "--points", "-3"),
        ("synth", "--lanes", "0"),
        ("synth", "--lanes", "9"),  # 9 lanes at 3.5 m do not fit the working area
        ("synth", "--spacing", "-1"),
        ("synth", "--spacing", "nan"),
    ],
    ids=lambda v: v[2:] if v.startswith("--") else v,
)
def test_a_bad_numeric_flag_exits_2(tmp_path, capsys, command, flag, value):
    scene = tmp_path / "scene.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    capsys.readouterr()
    out = tmp_path / "out.bin"
    argv = {
        "render-bev": ["render-bev", "--scene", str(scene), "--out", str(out)],
        "gradcheck": ["gradcheck"],
        "synth": ["synth", "--out", str(out)],
    }[command]
    assert main(argv + [flag, value]) == 2
    _one_line_error(capsys, f"invalid {flag}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, env_seed, message",
    [
        (["synth", "--seed", "-1"], None, "invalid --seed: must be a non-negative integer, got -1"),
        (["gradcheck", "--seed", "-1"], None, "invalid --seed: must be a non-negative integer, got -1"),
        (["selftest", "--seed", "-1"], None, "invalid --seed: must be a non-negative integer, got -1"),
        (["synth"], "abc", "invalid LANETOPO_SEED: must be a non-negative integer, got abc"),
        (["synth"], "-2", "invalid LANETOPO_SEED: must be a non-negative integer, got -2"),
        (["gradcheck"], "1.5", "invalid LANETOPO_SEED: must be a non-negative integer, got 1.5"),
    ],
    ids=["synth", "gradcheck", "selftest", "env-abc", "env-negative", "env-float"],
)
def test_a_bad_seed_exits_2(tmp_path, monkeypatch, capsys, argv, env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("LANETOPO_SEED", raising=False)
    else:
        monkeypatch.setenv("LANETOPO_SEED", env_seed)
    out = tmp_path / "scene.json"
    if argv[0] == "synth":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    assert _one_line_error(capsys, "invalid ") == message + "\n"
    assert not out.exists()


def test_an_explicit_seed_overrides_a_bad_environment_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("LANETOPO_SEED", "abc")
    out = tmp_path / "scene.json"
    assert main(["synth", "--seed", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_viz_refuses_a_non_finite_score_floor(tmp_path, capsys, value):
    scene = tmp_path / "scene.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    assert main(["viz", "--scene", str(scene), f"--min-score={value}", "--out", str(svg)]) == 2
    err = _one_line_error(capsys, "invalid --min-score: ")
    assert err == f"invalid --min-score: must be a finite number, got {float(value)}\n"
    assert not svg.exists()


def _run_in_a_fresh_process(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a new interpreter, with numpy's RuntimeWarnings raised as
    errors, so a warning before the error line shows as a traceback."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lanetopo.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("exponent", [20, 150, 300])
def test_huge_finite_weights_give_predictions_or_exit_2(tmp_path, desk_config_path, exponent):
    """Finite weights scaled far up either run to a readable predictions file
    or stop with one line naming the stage and the tensor; never a traceback."""
    scene = tmp_path / "scene.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "3", "--out", str(scene)])
    tensors, meta = model_weights_to_tensors(init_model_weights(PipelineConfig.desk()))
    scaled = {name: t * 10.0**exponent for name, t in tensors.items()}
    save_model_weights(model_weights_from_tensors(scaled, meta), weights)
    done = _run_in_a_fresh_process(
        ["run", "--scene", str(scene), "--config", desk_config_path, "--weights", str(weights),
         "--out", str(pred)]
    )
    assert "Traceback" not in done.stderr
    if exponent == 20:
        assert done.returncode == 0, done.stderr
        lines, scores, _, adjacency, _ = load_predictions(pred)
        assert np.isfinite(scores).all() and np.isfinite(adjacency).all()
    else:
        assert done.returncode == 2
        last = done.stderr.splitlines()[-1]
        assert last.startswith("numeric error: infer produced non-finite "), done.stderr
        assert not pred.exists()


@pytest.mark.parametrize("sd", [False, True], ids=["sd-off", "sd-on"])
def test_overflowing_deformable_logits_at_the_full_pair_shape_exit_2(tmp_path, sd):
    """Decoder weights scaled by 1e200 overflow every deformable logit of a
    row to -inf; the run stops with the one error line."""
    scene = tmp_path / "scene.json"
    config = tmp_path / "config.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "7", "--out", str(scene)])
    cfg = PipelineConfig(n_real=24, n_virtual=24, channels=32, ffn_dim=64, sd=sd)
    cfg.save(config)
    tensors, meta = model_weights_to_tensors(init_model_weights(cfg, 0))
    scaled = {
        name: t * 1e200 if name.startswith("decoder.") else t for name, t in tensors.items()
    }
    save_model_weights(model_weights_from_tensors(scaled, meta), weights)
    done = _run_in_a_fresh_process(
        ["run", "--scene", str(scene), "--config", str(config), "--weights", str(weights),
         "--out", str(pred)]
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        "numeric error: softmax over a fully masked row in the deformable attention\n"
    ), done.stderr
    assert not pred.exists()


def test_an_overflowing_sd_interaction_exits_2(tmp_path):
    """Finite SD feed-forward weights that overflow the SD grid stop the run
    with one line naming the stage, not a traceback."""
    scene = tmp_path / "scene.json"
    config = tmp_path / "config.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "3", "--out", str(scene)])
    cfg = PipelineConfig.desk(seed=3, sd=True)
    cfg.save(config)
    tensors, meta = model_weights_to_tensors(init_model_weights(cfg))
    scaled = {
        name: t * 1e200 if name.startswith("sd.layers.0.ffn.") else t
        for name, t in tensors.items()
    }
    save_model_weights(model_weights_from_tensors(scaled, meta), weights)
    done = _run_in_a_fresh_process(
        ["run", "--scene", str(scene), "--config", str(config), "--weights", str(weights),
         "--out", str(pred)]
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == 2
    last = done.stderr.splitlines()[-1]
    assert last == "numeric error: sd_interact layer 0 produced non-finite BEV features", done.stderr
    assert not pred.exists()


@pytest.mark.parametrize("exponent", [150, 300])
def test_huge_finite_weights_with_the_sd_map_exit_2(tmp_path, exponent):
    """All weights scaled far up, with the SD map on, stop the run at the SD
    interaction with the one error line and no warning before it."""
    scene = tmp_path / "scene.json"
    config = tmp_path / "config.json"
    weights = tmp_path / "w.json"
    pred = tmp_path / "pred.json"
    main(["synth", "--seed", "3", "--out", str(scene)])
    cfg = PipelineConfig.desk(sd=True)
    cfg.save(config)
    tensors, meta = model_weights_to_tensors(init_model_weights(cfg))
    scaled = {name: t * 10.0**exponent for name, t in tensors.items()}
    save_model_weights(model_weights_from_tensors(scaled, meta), weights)
    done = _run_in_a_fresh_process(
        ["run", "--scene", str(scene), "--config", str(config), "--weights", str(weights),
         "--out", str(pred)]
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == (
        "numeric error: sd_interact layer 0 produced non-finite BEV features\n"
    ), done.stderr
    assert not pred.exists()
