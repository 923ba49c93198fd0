"""Runs one workload in a process of its own and prints one JSON line.

A closed loop with one client on one thread: each operation is a
``compstat.cli.main`` call, issued when the previous one has returned.  The
first ``trace_ops`` operations of the workload's stream run once untimed as
a warm-up.  With ``--trace 0`` the loop then walks the stream until the time
budget is spent and reports the end-to-end metrics, with tracing off.  With
``--trace 1`` it repeats the first ``trace_ops`` operations in whole passes,
half the budget untraced and half with the tracer installed; the per-layer
metrics come from the traced half, so their counts depend only on the seed,
and the tracing overhead is the throughput difference of the two halves.
Every operation is followed by a run of the reference loop, and the
end-to-end times are its latencies scaled to the reference speed
(``reference.py``); the measured median latency and the loop's median time
are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import compstat  # noqa: E402

if Path(compstat.__file__).resolve().parent != ROOT / "src" / "compstat":
    raise SystemExit(f"compstat imported from {compstat.__file__}, not from this checkout")

from compstat import cli  # noqa: E402

from perfbench import inputs, workloads  # noqa: E402
from perfbench.reference import Clock  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

OUT_DIR = ROOT / ".perfbench_work"


class Phase:
    """Latencies and outcomes of the operations of one measured phase."""

    def __init__(self, threads: int):
        self.clock = Clock(threads)
        # scaled_s: latencies at the reference speed (see reference.py)
        self.latency_s, self.scaled_s, self.cpu_s, self.bytes, self.passed = [], [], [], [], []
        self.failed = self.wrong = self.fatal = 0
        self.reasons = []

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def throughput(self, window: int) -> float:
        """Passed operations per second of scaled invocation time: the median
        over consecutive windows of ``window`` operations (whole cycles of the
        workload's mix).  A run with no whole window is one window."""
        size = min(window, self.attempted)
        rates = [sum(self.passed[k:k + size]) / sum(self.scaled_s[k:k + size])
                 for k in range(0, self.attempted - size + 1, size)]
        return float(np.median(rates))


def run_op(op, out_path: Path, phase, tracer=None, csm_tally=None):
    out_path.unlink(missing_ok=True)
    argv = list(op.argv) + ["--out", str(out_path)]
    builds_before = _csm_builds(tracer)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:                     # the program crashed: a failed op
        traceback.print_exc(file=sys.stderr)
        code = -1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    outcome = workloads.check(op, code, text)
    if phase is None:
        return
    phase.latency_s.append(wall)
    phase.scaled_s.append(phase.clock.scale(wall))
    phase.cpu_s.append(cpu)
    phase.bytes.append(len(text) if text is not None else 0)
    phase.passed.append(not outcome.failed)
    phase.failed += outcome.failed
    phase.wrong += outcome.wrong
    phase.fatal += outcome.fatal
    if outcome.failed and len(phase.reasons) < 5:
        tag = "unexpected, " if outcome.fatal else ""
        phase.reasons.append(f"{tag}{' '.join(op.argv[:3])}: {outcome.reason}"[:300])
    if csm_tally is not None and op.kind == "analyze":
        csm_tally[0] += _csm_builds(tracer) - builds_before
        csm_tally[1] += outcome.recipes


def _csm_builds(tracer) -> int:
    if tracer is None:
        return 0
    return sum(n for name, n in tracer.counts.items() if name.startswith("csm.build_"))


def run_phase(workload, seconds: float, out_path: Path, passes_of: int = 0,
              tracer=None, csm_tally=None):
    """Operations 0, 1, ... until ``seconds`` have passed; with ``passes_of``,
    whole passes over the first ``passes_of`` operations instead."""
    phase = Phase(workload.threads)
    start = time.perf_counter()
    i = 0
    while True:
        run_op(workload.op(i % passes_of if passes_of else i), out_path, phase,
               tracer, csm_tally)
        i += 1
        if (time.perf_counter() - start >= seconds
                and i >= workload.trace_ops and (not passes_of or i % passes_of == 0)):
            return phase


def end_to_end(workload, phase) -> tuple:
    lat_ms = np.asarray(phase.scaled_s) * 1e3
    tail = float(np.percentile(lat_ms, workload.tail_percentile))
    metrics = {
        "throughput_ops_s": (phase.throughput(workload.window), "1/s"),
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "failed_frac": (phase.failed / phase.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"samples": phase.attempted, "tail_percentile": workload.tail_percentile,
             "beyond_tail": int(np.sum(lat_ms > tail)),
             "measured_p50_ms": float(np.median(phase.latency_s)) * 1e3,
             "loop_p50_ms": float(np.median(phase.clock.loops)) * 1e3}
    return metrics, notes


def per_layer(workload, tracer, traced, untraced, csm_tally) -> dict:
    ops = traced.attempted
    counts, self_s, incl = tracer.counts, tracer.self_s, tracer.inclusive_s

    def total(prefix):
        return sum(n for name, n in counts.items() if name.startswith(prefix))

    calls = {kind: counts[f"model.calls.{kind}"] / ops
             for kind in ("value", "grad", "hess", "closed_form")}
    solves = counts["solver.newton_solve"]
    metrics = {
        "model.evaluator_calls": (sum(calls.values()), "count"),
        **{f"model.calls.{kind}": (n, "count") for kind, n in calls.items()},
        "fd.stencil_calls": ((counts["fd.gradient"] + counts["fd.jacobian"]
                              + counts["fd.hessian"]) / ops, "count"),
        "solver.newton_solves": (solves / ops, "count"),
        "solver.newton_iterations": (counts["solver.newton_iterations"] / ops, "count"),
        "solver.converged_ratio": (counts["solver.newton_converged"] / solves if solves else 1.0,
                                   "ratio"),
        "sensitivity.calls": (total("sensitivity.") / ops, "count"),
        "csm.builds_per_recipe": (csm_tally[0] / csm_tally[1] if csm_tally[1] else 0.0, "ratio"),
        "diagnostics.checks": (total("diagnostics.check_") / ops, "count"),
        "diagnostics.envelope_solves": (counts["diagnostics.envelope_solves"] / ops, "count"),
        "report.bytes": (float(np.mean(traced.bytes)), "bytes"),
        "cli.cpu_wall_ratio": (sum(untraced.cpu_s) / sum(untraced.latency_s), "ratio"),
        "benchmarks.prepare_ms": (incl["benchmarks.BenchmarkEntry.prepare"] * 1e3 / ops, "ms"),
        "benchmarks.suite_ms": (incl["benchmarks.BenchmarkEntry.run_suite"] * 1e3 / ops, "ms"),
        "trace.overhead_ops_s": (untraced.throughput(workload.window)
                                 - traced.throughput(workload.window), "1/s"),
    }
    for layer in ("fd", "solver", "sensitivity", "geometry", "csm", "diagnostics",
                  "report", "cli"):
        metrics[f"{layer}.self_ms"] = (self_s[layer] * 1e3 / ops, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}.json"
    try:
        for i in range(workload.trace_ops):          # warm-up, not measured
            run_op(workload.op(i), out_path, None)
        if not args.trace:
            phase = run_phase(workload, args.seconds, out_path)
            metrics, notes = end_to_end(workload, phase)
            phases = [phase]
        else:
            sample = workload.trace_ops
            untraced = run_phase(workload, args.seconds / 2, out_path, sample)
            tracer = Tracer()
            tracer.install()
            inputs.counting = tracer.counted
            csm_tally = [0, 0]
            traced = run_phase(workload, args.seconds / 2, out_path, sample,
                               tracer, csm_tally)
            metrics = per_layer(workload, tracer, traced, untraced, csm_tally)
            notes = {"samples": traced.attempted, "untraced_samples": untraced.attempted}
            phases = [untraced, traced]
    finally:
        out_path.unlink(missing_ok=True)
    result = {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "wrong": sum(p.wrong for p in phases),
        "fatal": sum(p.fatal for p in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": {**notes, "failures": [r for p in phases for r in p.reasons][:5]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
