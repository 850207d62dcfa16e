"""Record the outputs the benchmark's checks compare against.

Run from the root of a checkout:

    python3 perfbench/record.py

For each recorded seed it runs the full-pair and eval-near inputs of the
warm-up and of the first cycles, and writes the full-pair output digests and
the eval-near reports to perfbench/recorded.json. Regenerate it only when a
change to the program is meant to change these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

# the same BLAS pin as run.py: the outputs depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SEEDS = range(11)
# more cycles than a 25-second run completes on a 2-vCPU machine
CYCLES = {"full-pair": 5, "eval-near": 120}


def record(name: str, seed: int, workdir: Path) -> dict:
    wl = workloads.WORKLOADS[name](seed, workdir=workdir)
    wl.setup()
    items = wl.warmup() + [it for c in range(CYCLES[name]) for it in wl.cycle(c)]
    out = {}
    for item in items:
        result = wl.op(item)
        if name == "full-pair":
            out[item.key] = workloads.output_digest(result[0].outputs)
        else:
            out[item.key] = workloads.report_digest(workloads.report_values(result))
        wl.release(item)
    return out


def main() -> int:
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        for name in CYCLES:
            recorded[name] = {}
            for seed in SEEDS:
                recorded[name][str(seed)] = record(name, seed, Path(tmp))
                print(f"{name} seed {seed}: {len(recorded[name][str(seed)])} outputs", flush=True)
    workloads.RECORDED_PATH.write_text(json.dumps(recorded, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
