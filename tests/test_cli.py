"""Command-line interface round-trips."""

import json

import pytest

from lanetopo.cli import main
from lanetopo.config import PipelineConfig


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
