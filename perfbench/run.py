"""Benchmark of ``compstat.cli.main``, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root.  The program is imported from ``src`` of this
checkout; without it the benchmark exits non-zero.  Each run prints a
summary and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), measured with tracing off in a worker
process that runs only the workload (see ``worker.py``).  Their times are
scaled to the host's reference speed: each operation and each set-up launch
is bracketed by runs of a fixed reference loop (on as many threads as the
operation runs on), and its wall time is multiplied by the loop's reference
time over the loop's time around it (``reference.py``).  The host's speed
moves in steps of up to 50% for tens of seconds, which longer runs do not
average away; the scaling cancels them.
The summary states the measured median latency and the loop's median time.

- ``throughput_ops_s`` [1/s]: passed CLI invocations per second of
  invocation time, one client, closed loop; the median over consecutive
  windows of whole cycles of the workload's mix.
- ``latency_p50_ms`` [ms]: median latency per invocation.
- ``latency_tail_ms`` [ms]: latency at the workload's fixed tail percentile,
  chosen so that a run keeps at least ten samples beyond it; the summary
  states the percentile, the sample count and the samples beyond.  No
  latency limit is defined, so a failed invocation keeps its measured
  latency; it is counted in ``failed_frac`` and left out of throughput.
- ``peak_rss_mb`` [MB]: peak resident memory of the worker process.
  Workers and set-up launches run with one BLAS thread (``CHILD_ENV``).
- ``setup_s`` [s]: wall time of a fresh interpreter that imports compstat
  and builds the nine catalog entries; median of several launches.
- ``failed_frac`` [ratio], summary only (it is 0 on every gated workload):
  invocations that exited non-zero, reported a failed check or an error, or
  disagreed with the oracle, over invocations attempted.  The JSON line
  carries the same as ``failed`` and ``attempted``.

``correct`` is false when any invocation fails in a way its workload does
not expect (see ``workloads.py``): every failure on ``catalog``, ``sweep``
and ``demand_large``; on every workload a crash, an exit code other than 0,
1 or 2, a missing report, a pipeline error or an oracle disagreement.  Only
``demand_fd`` expects failures, the solver stalls (exit 2) and failed checks
(exit 1) of finite-difference noise; they are counted in ``failed`` and
``failed_frac``.  ``demand_fd`` is therefore not among the workloads of
``BENCHMARK.json`` (``GATED``), whose runs must agree on their failure count;
it runs by name and in ``--self-check``.

Per-layer metrics (``--trace 1``, defined in ``worker.per_layer``) are per
operation.  Self time is a layer's span time minus its child spans; on
``sweep`` it is summed over the CLI's worker threads and includes their waits
for the interpreter lock.  Each should move an end-to-end metric:

- ``model.evaluator_calls``, ``model.calls.*``: ``latency_p50_ms`` on
  ``demand_fd`` and ``catalog``; no change on ``demand_large``.
- ``fd.stencil_calls``, ``fd.self_ms``: ``latency_p50_ms`` on ``demand_fd``;
  ``demand_large`` is the control.
- ``solver.converged_ratio``: ``failed_frac`` on ``demand_fd``;
  ``solver.self_ms``, ``solver.newton_solves``, ``solver.newton_iterations``:
  ``throughput_ops_s`` on ``sweep``.
- ``sensitivity.self_ms``, ``sensitivity.calls``: latency on ``catalog``.
- ``geometry.self_ms``: latency on ``demand_large``.
- ``csm.self_ms``, ``csm.builds_per_recipe`` (recipe-builder calls over
  recipes reported, analyze operations only): latency on ``demand_large``
  and ``catalog``.
- ``diagnostics.self_ms``, ``diagnostics.checks``,
  ``diagnostics.envelope_solves`` (Newton and closed-form solves inside
  ``check_envelope``): latency on ``catalog`` and ``demand_fd``.
- ``report.self_ms``, ``report.bytes``: latency on ``demand_large`` and
  ``throughput_ops_s`` on ``sweep``.
- ``cli.self_ms``, ``cli.cpu_wall_ratio`` (process CPU over wall time, from
  the untraced half): ``throughput_ops_s`` on ``sweep``; no change elsewhere.
- ``benchmarks.prepare_ms``, ``benchmarks.suite_ms`` (inclusive):
  ``throughput_ops_s`` on ``catalog`` through its ``verify-all`` operations.
- ``trace.overhead_ops_s``: untraced minus traced throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.reference import Clock  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("catalog", "sweep", "demand_large", "demand_fd")
GATED = ("catalog", "sweep", "demand_large")     # the workloads of BENCHMARK.json
END_TO_END = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb", "setup_s")
SUMMARY_ONLY = ("failed_frac",)
PER_LAYER = (
    "model.evaluator_calls", "model.calls.value", "model.calls.grad",
    "model.calls.hess", "model.calls.closed_form",
    "fd.stencil_calls", "fd.self_ms",
    "solver.self_ms", "solver.newton_solves", "solver.newton_iterations",
    "solver.converged_ratio",
    "sensitivity.self_ms", "sensitivity.calls",
    "geometry.self_ms",
    "csm.self_ms", "csm.builds_per_recipe",
    "diagnostics.self_ms", "diagnostics.checks", "diagnostics.envelope_solves",
    "report.self_ms", "report.bytes",
    "cli.self_ms", "cli.cpu_wall_ratio",
    "benchmarks.prepare_ms", "benchmarks.suite_ms",
    "trace.overhead_ops_s",
)
# Per-layer metrics computed from call counts alone: two traced runs with one
# seed must report them identically.
COUNTED = (
    "model.evaluator_calls", "model.calls.value", "model.calls.grad",
    "model.calls.hess", "model.calls.closed_form", "fd.stencil_calls",
    "solver.newton_solves", "solver.newton_iterations", "solver.converged_ratio",
    "sensitivity.calls", "csm.builds_per_recipe", "diagnostics.checks",
    "diagnostics.envelope_solves",
)

SETUP_LAUNCHES = 15
SETUP_CODE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import compstat
from compstat.benchmarks import all_benchmarks
if Path(compstat.__file__).resolve().parent != Path(sys.argv[1]) / "compstat":
    sys.exit("compstat not imported from this checkout")
if len(all_benchmarks()) != 9:
    sys.exit("expected nine catalog entries")
"""
TIMEOUT_S = 170
# One BLAS thread in every child.  On a small shared host, BLAS worker threads
# spin on the second core, and any neighbour load there stalls their parallel
# regions: a busy-loop on one core slowed demand_fd passes by 25% with the
# default thread count and not at all with one thread.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    pass


def measure_setup(launches: int = SETUP_LAUNCHES) -> float:
    clock = Clock()
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
                              cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=60)
        times.append(clock.scale(time.perf_counter() - start))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up launch failed:\n{proc.stderr}")
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker for {workload} failed (exit {proc.returncode}):\n"
                             f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summary(workload: str, seed: int, trace: int, result: dict) -> str:
    notes = result["notes"]
    lines = [f"workload {workload}  seed {seed}  trace {trace}  "
             f"attempted {result['attempted']}  failed {result['failed']}  "
             f"unexpected failures {result['fatal']}  "
             f"oracle disagreements {result['wrong']}"]
    for name in (PER_LAYER if trace else END_TO_END + SUMMARY_ONLY):
        metric = result["metrics"][name]
        extra = ""
        if name == "latency_p50_ms":
            extra = (f"  (n={notes['samples']}; measured {notes['measured_p50_ms']:.6g} ms"
                     f" with the reference loop at {notes['loop_p50_ms']:.4g} ms)")
        elif name == "latency_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:g}, n={notes['samples']}, "
                     f"{notes['beyond_tail']} beyond)")
        elif name == "setup_s":
            extra = f"  (median of {SETUP_LAUNCHES} launches)"
        lines.append(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}{extra}")
    for reason in notes.get("failures", []):
        lines.append(f"  failure: {reason}")
    return "\n".join(lines)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_worker(workload, seed, seconds, trace)
    if not trace:
        result["metrics"]["setup_s"] = {"value": measure_setup(), "unit": "s"}
    return result


def final_line(result: dict, trace: int) -> str:
    names = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": result["fatal"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names},
    })


def self_check(seed: int = 1) -> int:
    """One short pass per workload, asserting the benchmark's own contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if ([m["name"] for m in spec["end_to_end"]] != list(END_TO_END)
            or [m["name"] for m in spec["per_layer"]] != list(PER_LAYER)):
        problems.append("BENCHMARK.json metric names differ from run.py")
    if [w["name"] for w in spec["workloads"]] != list(GATED):
        problems.append("BENCHMARK.json workloads differ from run.py")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOADS:
        plain = measure(workload, seed, 0, 0)
        traced = [run_worker(workload, seed, 0, 1) for _ in range(2)]
        print(summary(workload, seed, 0, plain))
        print(summary(workload, seed, 1, traced[0]))
        for result, names in ((plain, END_TO_END + SUMMARY_ONLY),
                              (traced[0], PER_LAYER), (traced[1], PER_LAYER)):
            for name in names:
                metric = result["metrics"].get(name)
                if metric is None or metric["unit"] != units.get(name, metric["unit"]):
                    problems.append(f"{workload}: {name} missing or with the wrong unit")
        if any(r["fatal"] for r in [plain] + traced):
            problems.append(f"{workload}: unexpected failures or oracle disagreements")
        if workload in GATED and any(r["failed"] for r in [plain] + traced):
            problems.append(f"{workload}: failed operations on a gated workload")
        for name in COUNTED:
            first, second = (r["metrics"][name]["value"] for r in traced)
            if first != second:
                problems.append(f"{workload}: traced {name} differs, {first} vs {second}")
    for problem in problems:
        print(f"SELF-CHECK FAIL  {problem}")
    print("SELF-CHECK " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(summary(args.workload, args.seed, args.trace, result))
    print(final_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
