"""Full-size probe: traced ops of the desk config and of the full-size
config, sd off and sd on, with BLAS at one thread and at its default.

Run from the root of a checkout:

    python3 bench/fullsize.py [--out bench/BENCH_fullsize.json]

Each row runs in ``RUNS`` fresh processes, one after another. The ``desk``,
``sd_off`` and ``sd_on`` rows pin BLAS to one thread; the
``sd_off_default_blas`` and ``sd_on_default_blas`` rows run the full-size
configs with no BLAS variable set, so numpy's OpenBLAS picks its own thread
count, and record ``blas_threads`` as null. The op is
``init_model_weights(cfg, 0)``, ``synth_scene(0)``, ``run_pipeline`` and
``dump_predictions_json``, traced by ``perfbench/spans.Tracer``. Per row
the output holds the median over the processes of each number:
``import_s`` (process start to ``import lanetopo`` done), ``init_s`` (the
weight init), ``op_s`` (the scene, the run and the dump), ``cpu_s`` (the
op's process CPU time, user plus system: above ``op_s`` when a second core
worked on it), ``ru_maxrss_kb``, each span's ``s``/``self_s``/``calls``
and the counters. The op is the process's first
run, so it includes loading ``scipy.sparse`` and ``scipy.special``, which
load on first use. This is a probe, not a gated benchmark: each process
peaks at about 0.3–0.4 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# a pinned probe process starts with these variables, so numpy loads with
# them: the output bytes depend on the thread count
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")}
ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "bench" / "BENCH_fullsize.json"
PROBE_TIMEOUT_S = 600
RUNS = 3
# each probed row: its config, built from the PipelineConfig class, and
# whether its processes pin BLAS to BLAS_THREADS
CONFIGS = {
    "desk": (lambda config: config.desk(), True),
    "sd_off": (lambda config: config(), True),
    "sd_on": (lambda config: config(sd=True), True),
    "sd_off_default_blas": (lambda config: config(), False),
    "sd_on_default_blas": (lambda config: config(sd=True), False),
}


def child(cfg_fields: dict, spawned: float) -> dict:
    """The op on ``cfg_fields``, traced, in this process; ``spawned`` is the
    ``time.time()`` at which the parent started it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import lanetopo  # noqa: F401

    import_s = time.time() - spawned
    import numpy
    import scipy
    import spans
    from lanetopo import pipeline, scene
    from lanetopo import weights as weights_module
    from lanetopo.config import PipelineConfig

    cfg = PipelineConfig.from_dict(cfg_fields)
    tracer = spans.Tracer()
    # the traced functions are called through their modules, where the
    # tracer puts its wrappers
    tracer.install()
    tracer.op = spans.SETUP_OP
    t0 = time.perf_counter()
    weights = weights_module.init_model_weights(cfg, 0)
    init_s = time.perf_counter() - t0
    tracer.op = "op"
    cpu0 = os.times()
    t0 = time.perf_counter()
    result = pipeline.run_pipeline(scene.synth_scene(0), cfg, weights)
    text = pipeline.dump_predictions_json(result.outputs)
    op_s = time.perf_counter() - t0
    cpu1 = os.times()
    tracer.op = None

    summary = spans.summarize(tracer, {"op": op_s})
    per_span = {
        name: {part: summary[f"{name}.{part}"]["value"] for part in ("s", "self_s", "calls")}
        for name in tracer.installed
    }
    counters = {
        key: summary[key]["value"]
        for _, keys in spans.COUNTERS.values() for key in keys if key in summary
    }
    return {
        "config": cfg.to_dict(),
        "import_s": import_s,
        "init_s": init_s,
        "op_s": op_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pred_bytes": len(text.encode()),
        "spans": per_span,
        "counters": counters,
        "counter_errors": tracer.counter_errors,
        "blas_threads": (int(os.environ["OPENBLAS_NUM_THREADS"])
                         if "OPENBLAS_NUM_THREADS" in os.environ else None),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe(cfg, pin_blas: bool = True) -> dict:
    """:func:`child`'s record for the :class:`~lanetopo.config.PipelineConfig`
    ``cfg``, run in a fresh process with BLAS at one thread, or with no BLAS
    variable set when ``pin_blas`` is false."""
    env = {var: value for var, value in os.environ.items() if var not in BLAS_ENV}
    if pin_blas:
        env.update(BLAS_ENV)
    done = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(cfg.to_dict()),
         "--spawned", repr(time.time())],
        env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe process failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def median_record(records: list[dict]) -> dict:
    """Field-wise median of the numbers in equally shaped records, nested
    dicts included; any other field is the first record's."""
    out = {}
    for key, value in records[0].items():
        values = [r[key] for r in records]
        if isinstance(value, dict):
            out[key] = median_record(values)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = statistics.median(values)
        else:
            out[key] = value
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=DEFAULT_OUT)
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(json.loads(args.child), args.spawned)))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    from lanetopo.config import PipelineConfig

    runs = {}
    for name, (make, pin_blas) in CONFIGS.items():
        cfg = make(PipelineConfig)
        r = runs[name] = {**median_record([probe(cfg, pin_blas) for _ in range(RUNS)]), "runs": RUNS}
        print(f"{name}: import {r['import_s']:.3f} s  init {r['init_s']:.3f} s  "
              f"op {r['op_s']:.3f} s  CPU {r['cpu_s']:.3f} s  "
              f"peak RSS {r['ru_maxrss_kb'] / 1024:.0f} MB  "
              f"predictions {r['pred_bytes'] / 1e6:.2f} MB")
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
