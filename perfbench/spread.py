"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --seeds 201-210 [--workloads catalog,sweep]
                                [--seconds S] [--write perfbench/baseline.json
                                               --hardware TEXT]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound in ``BENCHMARK.json``.  With
``--write`` it records the quartiles as the baseline, together with one
traced run per workload on the development seed.  Exits non-zero if a run
fails or reads ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
DEV_SEED = 1
HELD_OUT_SEED = 7777


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} read correct false:\n{proc.stdout}")
    return result


def seeds_of(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("201-210"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path)
    parser.add_argument("--hardware", default=platform.machine(),
                        help="description of the machine, recorded with --write")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    end_to_end, per_layer = {}, {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            metrics = run(workload, seed, args.seconds, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {metrics[name]['value']:.6g}" for name in bounds), flush=True)
        end_to_end[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            end_to_end[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                          "spread": spread}
            print(f"  {workload:<13} {name:<17} median {median:11.6g}  "
                  f"q1 {q1:11.6g}  q3 {q3:11.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]}", flush=True)
        if args.write:
            traced = run(workload, DEV_SEED, args.seconds, 1)["metrics"]
            per_layer[workload] = {name: m["value"] for name, m in traced.items()}
    if args.write:
        args.write.write_text(json.dumps({
            "about": "First baseline of this benchmark: one --trace 0 run per seed and "
                     "workload, with the quartiles over the seeds; per-layer values from "
                     "one --trace 1 run on the development seed.  Later claims must "
                     "also hold on the held-out seed, not used while tuning.",
            "hardware": f"{args.hardware}; Python {platform.python_version()}",
            "dev_seed": DEV_SEED, "held_out_seed": HELD_OUT_SEED,
            "run_seconds": args.seconds, "seeds": args.seeds,
            "end_to_end": end_to_end, "per_layer": per_layer,
        }, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
