"""Command-line interface.

Commands: synth, render-bev, run, eval, viz, gradcheck, selftest.
Environment overrides: LANETOPO_SEED sets the default seed, LANETOPO_OUT_DIR
prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig
from .losses import GRAD_CHECK_TERMS, run_grad_checks
from .pipeline import (
    NonFiniteError,
    ablation_grid,
    dump_predictions_json,
    evaluate_prediction_file,
    load_predictions,
    run_pipeline,
    save_predictions,
)
from .scene import (
    SceneParams,
    load_bev,
    load_scene,
    render_bev_features,
    save_bev,
    save_scene,
    synth_scene,
)
from .viz import render_svg
from .weights import check_weights, init_model_weights, load_model_weights


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("LANETOPO_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class _InvalidInput(Exception):
    """A file argument that cannot be read or parsed: (what, the error)."""


def _read(what: str, loader, *args):
    """``loader(*args)``, an OSError or ValueError raised as _InvalidInput."""
    try:
        return loader(*args)
    except (OSError, ValueError) as exc:
        raise _InvalidInput(what, exc) from None


def _check_flag(flag: str, value, ok: bool, requirement: str):
    """``value``, or _InvalidInput naming ``flag`` when ``ok`` is false."""
    if not ok:
        raise _InvalidInput(flag, ValueError(f"must be {requirement}, got {value}"))
    return value


def _seed(args) -> int:
    """``--seed``, else LANETOPO_SEED, else 0: a non-negative integer."""
    if args.seed is not None:
        flag, raw = "--seed", args.seed
    else:
        flag, raw = "LANETOPO_SEED", os.environ.get("LANETOPO_SEED", "0")
    _check_flag(flag, raw, str(raw).strip().isdecimal(), "a non-negative integer")
    return int(raw)


def _invalid_input(what: str, exc: OSError | ValueError) -> int:
    print(f"invalid {what}: {exc}", file=sys.stderr)
    return 2


def _load_config(path: str | None) -> PipelineConfig:
    return _read("config file", PipelineConfig.load, path) if path else PipelineConfig()


def _apply_toggles(cfg: PipelineConfig, args) -> PipelineConfig:
    return replace(
        cfg,
        pgm=cfg.pgm ^ args.toggle_pgm,
        pmf=cfg.pmf ^ args.toggle_pmf,
        sd=cfg.sd ^ args.toggle_sd,
        rvs_self_attention=cfg.rvs_self_attention and not args.no_rvs,
        hybrid_attention=cfg.hybrid_attention and not args.no_hybrid,
    )


def _cmd_synth(args) -> int:
    _check_flag("--lanes", args.lanes, args.lanes >= 1, "at least 1")
    _check_flag("--spacing", args.spacing, math.isfinite(args.spacing) and args.spacing > 0,
                "a finite number above 0")
    params = _read(
        "--lanes and --spacing", SceneParams, args.lanes, args.spacing, args.intersections
    )
    scene = synth_scene(_seed(args), params)
    save_scene(scene, _out_path(args.out))
    print(f"wrote scene with {scene.n_lanes} centerlines to {args.out}")
    return 0


def _cmd_render_bev(args) -> int:
    scene = _read("scene file", load_scene, args.scene)
    cfg = _load_config(args.config)
    if args.noise is not None:
        _check_flag("--noise", args.noise, math.isfinite(args.noise) and args.noise >= 0,
                    "a finite number at least 0")
        cfg = replace(cfg, noise_sigma=args.noise)
    grid = render_bev_features(scene, cfg)
    save_bev(grid, _out_path(args.out))
    print(f"wrote {grid.h}x{grid.w}x{grid.c} BEV features to {args.out}")
    return 0


def _cmd_run(args) -> int:
    scene = _read("scene file", load_scene, args.scene)
    cfg = _apply_toggles(_load_config(args.config), args)
    if args.weights:
        weights = _read("weights file", load_model_weights, args.weights)
        _read("weights file", check_weights, cfg, weights)
    else:
        weights = init_model_weights(cfg)
    bev = None
    if args.bev:
        bev = _read("BEV file", load_bev, args.bev, cfg.grid)
        if bev.c != cfg.channels:
            raise _InvalidInput("BEV file", ValueError(
                f"{args.bev} has {bev.c} channels, config expects {cfg.channels}"
            ))
    try:
        result = run_pipeline(scene, cfg, weights, bev=bev)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    save_predictions(result.outputs, _out_path(args.out))
    print(
        f"DET_l={result.report.det_l:.4f} TOP_ll={result.report.top_ll:.4f} "
        f"AP_l={result.report.ap_l:.4f}"
    )
    if args.report:
        result.report.save(_out_path(args.report))
    return 0


def _cmd_eval(args) -> int:
    scene = _read("scene file", load_scene, args.gt)
    cfg = _load_config(args.config)
    report = _read("prediction file", evaluate_prediction_file, args.pred, scene, cfg)
    report.save(_out_path(args.out))
    print(
        f"DET_l={report.det_l:.4f} TOP_ll={report.top_ll:.4f} AP_l={report.ap_l:.4f}"
    )
    return 0


def _cmd_viz(args) -> int:
    _check_flag("--min-score", args.min_score, math.isfinite(args.min_score), "a finite number")
    scene = _read("scene file", load_scene, args.scene)
    predictions = None
    if args.pred:
        lines, scores, is_real, _, _ = _read("prediction file", load_predictions, args.pred)
        predictions = [
            (line, real) for line, score, real in zip(lines, scores, is_real)
            if score >= args.min_score
        ]
    _out_path(args.out).write_text(render_svg(scene, predictions))
    print(f"wrote {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    _check_flag("--points", args.points, args.points >= 1, "at least 1")
    errors = run_grad_checks(seed=_seed(args), n_points=args.points)
    ok = True
    for term in GRAD_CHECK_TERMS:
        passed = errors[term] < 1e-4
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {term}: max relative error {errors[term]:.3e}")
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    seed = _seed(args)
    t0 = time.time()
    ok = True

    def check(name: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    cfg = PipelineConfig.desk(seed=seed)
    scene = synth_scene(seed)
    weights = init_model_weights(cfg)
    result_a = run_pipeline(scene, cfg, weights)
    result_b = run_pipeline(scene, cfg, weights)
    check(
        "deterministic predictions",
        dump_predictions_json(result_a.outputs) == dump_predictions_json(result_b.outputs),
    )
    rows = ablation_grid(scene, cfg, weights)
    check("ablation grid has 8 rows", len(rows) == 8)
    invalid = [r for r in rows if "error" in r]
    check("fusion without masks errors", all(r["pmf"] and not r["pgm"] for r in invalid))
    check("six valid combinations ran", len(rows) - len(invalid) == 6)
    finite = all(
        np.isfinite([r["det_l"], r["top_ll"], r["ap_l"]]).all() for r in rows if "error" not in r
    )
    check("metrics are finite", finite)
    errors = run_grad_checks(seed=seed, n_points=5)
    check("gradient checks", max(errors.values()) < 1e-4)
    print(f"selftest finished in {time.time() - t0:.1f}s")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanetopo",
        description="Deterministic lane-centerline detection and topology reasoning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--seed", type=int)
    p.add_argument("--lanes", type=int, default=3)
    p.add_argument("--spacing", type=float, default=3.5)
    p.add_argument("--intersections", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("render-bev", help="render BEV features from a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--config")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render_bev)

    p = sub.add_parser("run", help="run the full pipeline on a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--config")
    p.add_argument("--weights")
    p.add_argument("--bev")
    p.add_argument("--toggle-pgm", action="store_true", help="invert the points-guided-mask toggle")
    p.add_argument("--toggle-pmf", action="store_true", help="invert the points-mask-fusion toggle")
    p.add_argument("--toggle-sd", action="store_true", help="invert the SD-map toggle")
    p.add_argument("--no-rvs", action="store_true", help="disable real/virtual separated self-attention")
    p.add_argument("--no-hybrid", action="store_true", help="disable masked cross-attention")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="score a prediction file against a scene")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("viz", help="render a scene (and predictions) to SVG")
    p.add_argument("--scene", required=True)
    p.add_argument("--pred")
    p.add_argument("--min-score", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int)
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("selftest", help="fast end-to-end smoke checks")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InvalidInput as bad:
        return _invalid_input(*bad.args)


if __name__ == "__main__":
    raise SystemExit(main())
