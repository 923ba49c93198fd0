"""Workloads: seeded streams of CLI invocations and the oracles that check them.

The i-th operation of a workload depends only on the seed and i, so every
run with a seed sees the same sequence, and a run cycles through a fixed mix
of kinds and sizes.  An operation is one ``compstat.cli.main`` call that
writes its report to a file; its oracle reads the report back, ignores
``timings``, and compares the solution and its parameter Jacobian with
closed forms evaluated here, outside the pipeline.

- ``catalog``: the nine catalog models at their default points, each with
  ``--method ift`` and ``--method fd``, plus one ``verify-all``, in a seeded
  order that repeats.  Small matrices, so checks and repeated evaluator
  calls dominate.
- ``sweep``: 64-point ``profit_cd`` price sweeps, each with fresh seeded
  endpoints; the only path through the CLI's threaded multi-point analyze
  and its large multi-report.
- ``demand_large``: n-good log demand with analytic derivatives, sizes
  cycling 40, 40, 80, each operation a fresh instance; few evaluator calls,
  O(n^3) eigendecompositions and large reports.
- ``demand_fd``: the same family with every derivative and the closed form
  removed, sizes cycling 4, 8, 12, 8, each operation a fresh instance;
  finite-difference stencils and evaluator calls dominate.  Instances whose
  solve stalls below the stencil noise floor, or whose noisy matrices fail a
  check, are kept and counted as failed.  It is not one of the workloads in
  ``BENCHMARK.json``: those must run without a failed operation, and here
  the share of failing instances depends on the seed (about 70% at this
  revision), so two sets of runs cannot agree on it.  No FD-only size is free
  of such failures (27 of 1800 instances failed even at n = 2), so no gated
  workload runs the finite-difference stencils.  Run it by name, or through
  ``--self-check``, which prints its ``failed_frac``.

Every failure counts in ``failed``.  A failure is also fatal, and makes the
run's verdict false, unless it is one the workload expects: only
``demand_fd`` expects any, and only a report written with exit 2 for a solve
that did not converge, or with exit 1 for checks that failed.  A crash, any
other exit code, a missing report, a pipeline error, a failed
``verify-all`` row and an oracle disagreement are always fatal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from compstat.benchmarks import benchmark_names, get_benchmark
from compstat.benchmarks.slutsky import demand_jacobian

from . import inputs

# Oracle tolerance on max|actual - expected| / max(1, max|expected|).
# Analytic derivatives (IFT, or re-solve stencils on closed forms) agree with
# the closed forms to ~1e-10; nested finite-difference Hessians to ~1e-6.
TOL_ANALYTIC = 1e-6
TOL_FD = 1e-4

SWEEP_POINTS = 64


@dataclass(frozen=True)
class Expected:
    """Oracle values of one report: parameter point, solution, dx/da."""
    a: np.ndarray
    x: Optional[np.ndarray]
    x_jac: Optional[np.ndarray]


@dataclass(frozen=True)
class Op:
    kind: str                  # "analyze" | "verify-all"
    argv: tuple                # CLI arguments, without --out
    expected: tuple = ()       # one Expected per report
    tol: float = TOL_ANALYTIC
    may_fail: bool = False     # a solver stall or failed check is expected


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[int], Op]    # the i-th operation of the seeded stream
    trace_ops: int             # prefix of the stream a traced run repeats
    tail_percentile: float     # fixed so that a run keeps >= 10 samples beyond it
    window: int                # operations per throughput window: whole mix cycles
    threads: int = 1           # threads the CLI runs one operation on


@dataclass(frozen=True)
class Outcome:
    failed: bool               # non-zero exit, failed check, error or mismatch
    wrong: bool                # a converged report disagrees with its oracle
    fatal: bool                # a failure the workload does not expect
    recipes: int               # matrix recipes reported (derived ones excluded)
    reason: str = ""


def _catalog(seed: int) -> list:
    ops = []
    for name in benchmark_names():
        entry = get_benchmark(name)
        a = np.asarray(entry.default_point, dtype=float)
        x = entry.model.analytic_solution(a)[0] if entry.has_analytic else None
        x_jac = entry.analytic_x_jac(a) if entry.analytic_x_jac is not None else None
        for method in ("ift", "fd"):
            ops.append(Op("analyze", ("analyze", "--model", name, "--method", method),
                          (Expected(a, x, x_jac),)))
    ops.append(Op("verify-all", ("verify-all", "--format", "json")))
    order = np.random.default_rng([seed, 0]).permutation(len(ops))
    return [ops[i] for i in order]


def _sweep_op(seed: int, index: int) -> Op:
    entry = get_benchmark("profit_cd")
    slot = entry.model.parameter_names.index("p")
    rng = np.random.default_rng([seed, index, 1])
    start, stop = float(rng.uniform(1.5, 2.0)), float(rng.uniform(2.5, 3.5))
    expected = []
    for value in np.linspace(start, stop, SWEEP_POINTS):
        a = np.asarray(entry.default_point, dtype=float).copy()
        a[slot] = value
        expected.append(Expected(a, entry.model.analytic_solution(a)[0],
                                 entry.analytic_x_jac(a)))
    return Op("analyze", ("analyze", "--model", "profit_cd", "--sweep",
                          f"p={start!r}:{stop!r}:{SWEEP_POINTS}"), tuple(expected))


def _demand_op(seed: int, index: int, n: int, analytic: bool) -> Op:
    gamma, prices, income = inputs.demand_instance(n, seed, index)
    a = np.append(prices, income)
    x = gamma / gamma.sum() * income / prices
    factory = inputs.factory_name(n, seed, index, analytic)
    return Op(
        "analyze",
        ("analyze", "--model", f"perfbench.inputs:{factory}",
         "--at", "p=" + ",".join(repr(v) for v in prices.tolist()),
         "--at", f"m={income!r}"),
        (Expected(a, x, demand_jacobian(gamma)[0](a)),),
        TOL_ANALYTIC if analytic else TOL_FD, may_fail=not analytic)


# Sizes cycle in these orders; every operation is a fresh seeded instance.
# A percentile that falls on the border between two sizes' latency bands
# jumps between them from run to run, so each mix puts the median and the
# tail percentile inside one band: for demand_large the median among n = 40
# and the tail among n = 80 operations; for demand_fd both among n = 8,
# because n = 12 instances split, by seed, between fast solver stalls and
# slow converged runs.
DEMAND_LARGE_SIZES = (40, 40, 80)
DEMAND_FD_SIZES = (4, 8, 12, 8)


def build(name: str, seed: int) -> Workload:
    if name == "catalog":
        cycle = _catalog(seed)
        return Workload(name, lambda i: cycle[i % len(cycle)], len(cycle), 98.0,
                        len(cycle))
    if name == "sweep":
        # cmd_analyze runs a multi-point analyze on min(8, points) threads
        return Workload(name, lambda i: _sweep_op(seed, i), 2, 66.0, 3,
                        min(8, SWEEP_POINTS))
    if name == "demand_large":
        sizes = DEMAND_LARGE_SIZES
        return Workload(name, lambda i: _demand_op(seed, i, sizes[i % len(sizes)], True),
                        6, 90.0, 2 * len(sizes))
    if name == "demand_fd":
        sizes = DEMAND_FD_SIZES
        return Workload(name, lambda i: _demand_op(seed, i, sizes[i % len(sizes)], False),
                        8, 75.0, len(sizes))
    raise KeyError(f"unknown workload {name!r}")


def _mismatch(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 0.0)
    return float(np.max(np.abs(actual - expected))) / scale if expected.size else 0.0


def check(op: Op, code: int, text: Optional[str]) -> Outcome:
    """Judge one operation from its exit code and the report it wrote."""
    reasons = [] if code == 0 else [f"exit {code}"]
    if text is None:
        return Outcome(True, False, True, 0, "; ".join(reasons + ["no report"]))
    doc = json.loads(text)
    if op.kind == "verify-all":
        reasons += [f"{row['benchmark']}/{row['check']} {row['verdict']}"
                    for row in doc if row["verdict"] != "pass"]
        return Outcome(bool(reasons), False, bool(reasons), 0, "; ".join(reasons))
    reports = doc["reports"] if "reports" in doc else [doc]
    if len(reports) != len(op.expected):
        return Outcome(True, True, True, 0,
                       f"{len(reports)} reports, expected {len(op.expected)}")
    wrong = False
    recipes = 0
    stages = set()
    for rep, exp in zip(reports, op.expected):
        reasons += [f"check {c['name']} failed" for c in rep["checks"]
                    if c["verdict"] == "fail"]
        reasons += [f"error {e['stage']}" for e in rep["errors"]]
        stages.update(e["stage"] for e in rep["errors"])
        recipes += sum(1 for r in rep["csm_results"]
                       if not r["recipe"].startswith("derived:"))
        sol = rep["solution"]
        mismatches = [_mismatch(sol["a"], exp.a) > 1e-12]
        if sol["converged"]:
            if exp.x is not None:
                mismatches.append(_mismatch(sol["x"], exp.x) > op.tol)
            if exp.x_jac is not None:
                mismatches.append(
                    _mismatch(rep["sensitivity"]["x_jac"]["rows"], exp.x_jac) > op.tol)
        if any(mismatches):
            wrong = True
            reasons.append(f"oracle disagrees at a={sol['a']}")
    # exit 2 comes with a solve error, exit 1 with failed checks (cli.cmd_analyze)
    expected = op.may_fail and not wrong and (
        (code == 2 and stages == {"solve"}) or (code == 1 and not stages))
    return Outcome(bool(reasons), wrong, bool(reasons) and not expected, recipes,
                   "; ".join(reasons))
