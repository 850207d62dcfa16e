"""lanetopo benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-ablation --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from wrapped calls. See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: the program's output bytes
# depend on the thread count, and one thread fits every machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
OUT_DIR = "perfbench-out"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
WORKLOAD_NAMES = ("desk-ablation", "full-pair", "eval-near")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def require_sources(root: Path) -> None:
    if not (root / "src" / "lanetopo" / "__init__.py").is_file():
        raise SystemExit(f"error: no lanetopo sources under {root / 'src'}; "
                         "run from the root of a checkout")


def import_program(root: Path):
    """Import lanetopo from ``root/src`` and the benchmark modules."""
    require_sources(root)
    src = root / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import lanetopo

    if Path(lanetopo.__file__).resolve().parent != (src / "lanetopo").resolve():
        raise SystemExit(f"error: lanetopo was imported from {lanetopo.__file__}, not {src}")
    import spans
    import workloads

    return workloads, spans


def run_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh processes that import, configure and initialise."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", "0"],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs ops, times them, checks their outputs and counts failures."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_item(self, item, release: bool = True) -> tuple[float, bool, int | None]:
        """Wall time of the op, whether its output passed, its prediction bytes."""
        if self.tracer is not None:
            self.tracer.op = item.key
        t0 = time.perf_counter()
        try:
            out = self.wl.op(item)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        finally:
            wall = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op = None
        if problems is None:
            problems = self.wl.check(item, out)
        self.attempted += 1
        size = None
        if problems:
            self.failed += 1
            self.problems += [f"{self.wl.name} {item.key}: {p}" for p in problems[:3]]
        else:
            size = self.wl.pred_bytes(item, out)
        if release:
            self.wl.release(item)
        return wall, not problems, size

    def run_cycles(self, first: int, deadline: float) -> dict:
        """Whole cycles from ``first``, at least one, ending as close to the
        deadline as whole cycles allow: op key -> (wall, passed, bytes)."""
        results = {}
        start = time.perf_counter()
        for index in itertools.count(first):
            for item in self.wl.cycle(index):
                results[item.key] = self.run_item(item)
            now = time.perf_counter()
            mean_cycle = (now - start) / (index - first + 1)
            if now + mean_cycle / 2 >= deadline:
                return results


def tail(walls: list[float]):
    """Highest percentile with at least TAIL_MIN_BEYOND ops beyond it."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        value = float(np.percentile(walls, p))
        beyond = sum(w > value for w in walls)
        if beyond >= TAIL_MIN_BEYOND:
            return p, value, beyond
    return None


def cycle_rate(results: dict) -> float:
    """Median over cycles of passed ops per second of op time. Every cycle
    holds the same ops, and the median keeps one slow cycle from moving it."""
    cycles: dict[str, list] = {}
    for key, (wall, ok, _) in results.items():
        cycles.setdefault(key.split("/")[0], []).append((wall, ok))
    return statistics.median(
        sum(ok for _, ok in ops) / sum(wall for wall, _ in ops) for ops in cycles.values()
    )


def end_to_end(args, root: Path) -> tuple[Runner, dict, dict]:
    setup_times = measure_setup(args.workload)
    workloads, _ = import_program(root)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_recorded(), Path(tmp))
        wl.setup()
        runner = Runner(wl)
        for item in wl.warmup():
            runner.run_item(item)
        start = time.perf_counter()
        results = runner.run_cycles(0, start + args.seconds)
        elapsed = time.perf_counter() - start
    walls = [wall for wall, _, _ in results.values()]
    sizes = [size for _, _, size in results.values() if size is not None]
    metrics = {
        "ops_per_s": {"value": cycle_rate(results), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    extra = {
        "op_walls_s": {key: wall for key, (wall, _, _) in results.items()},
        "ops": len(walls),
        "timed_phase_s": elapsed,
        "setup_probes_s": setup_times,
        "failed_share": runner.failed / runner.attempted,
    }
    t = tail(walls)
    if t is not None:
        extra["op_tail_s"] = {"percentile": t[0], "value": t[1], "beyond": t[2]}
    if sizes:
        extra["pred_mb"] = statistics.fmean(sizes) / 1e6
    return runner, metrics, extra


def traced(args, root: Path) -> tuple[Runner, dict, dict]:
    workloads, spans = import_program(root)
    tracer = spans.Tracer()
    tracer.install()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_recorded(), Path(tmp))
        tracer.op = spans.SETUP_OP
        wl.setup()
        tracer.op = None
        tracer.enabled = False
        runner = Runner(wl, tracer)
        for item in wl.warmup():
            runner.run_item(item)
        start = time.perf_counter()
        # every op of cycle 0 runs untraced and traced on the same input, in
        # alternating order, so both runs of a pair see the same machine
        untraced, results = {}, {}
        for slot, item in enumerate(wl.cycle(0)):
            order = (False, True) if slot % 2 == 0 else (True, False)
            for n, enabled in enumerate(order):
                tracer.enabled = enabled
                outcome = runner.run_item(item, release=n == 1)
                (results if enabled else untraced)[item.key] = outcome
        tracer.enabled = True
        if time.perf_counter() < start + args.seconds:
            results.update(runner.run_cycles(1, start + args.seconds))
    walls = {key: wall for key, (wall, _, _) in results.items()}
    metrics = spans.summarize(tracer, walls)
    reference = {key: wall for key, (wall, _, _) in untraced.items()}
    overhead = sum(walls[k] - reference[k] for k in reference) / len(reference)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s/op"}
    metrics["trace.overhead_share"] = {
        "value": overhead * len(reference) / sum(reference.values()), "unit": "share",
    }
    extra = {
        "counter_bases": spans.COUNTER_BASES,
        "missing_spans": tracer.missing,
        "counter_errors": tracer.counter_errors,
        "spans": tracer.dump(),
    }
    return runner, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    require_sources(root)
    if args.setup_only:
        workloads, _ = import_program(root)
        workloads.WORKLOADS[args.workload](args.seed).setup()
        return 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **run_record()}
    runner, metrics, extra = (traced if args.trace else end_to_end)(args, root)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(
        {"record": record, "metrics": metrics, "problems": runner.problems, **extra}
    ) + "\n")

    for key in ("nproc", "blas_threads", "python", "numpy", "scipy"):
        print(f"record {key}: {record[key]}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"attempted: {runner.attempted}  failed: {runner.failed}  "
          f"failed_share: {runner.failed / runner.attempted:.4f}")
    if not args.trace:
        print(f"ops: {extra['ops']} in {extra['timed_phase_s']:.2f} s")
        tail_info = extra.get("op_tail_s")
        if tail_info:
            print(f"op_tail_s: {tail_info['value']:.6f} s  (p{tail_info['percentile']:g}, "
                  f"{tail_info['beyond']} of {extra['ops']} ops beyond)")
        else:
            print(f"op_tail_s: omitted ({extra['ops']} ops support no percentile "
                  f"with {TAIL_MIN_BEYOND} beyond)")
        if "pred_mb" in extra:
            print(f"pred_mb: {extra['pred_mb']:.6f} MB")
    else:
        for name in extra["missing_spans"]:
            print(f"span {name}: absent")
        for name, reason in extra["counter_errors"].items():
            print(f"counter of {name}: dropped ({reason})")
    bases = extra.get("counter_bases", {})
    for name, m in metrics.items():
        base = f"  (base: {bases[name]})" if name in bases else ""
        print(f"{name}: {m['value']:.6g} {m['unit']}{base}")
    print(f"run record written to {out_path.relative_to(root)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
