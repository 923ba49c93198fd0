"""Command-line front end: configuration, recipe assembly and checks on top
of `BenchmarkEntry.prepare` (solve -> differentiate -> compensate), and
report emission.

A sweep's points are analyzed in contiguous chunks, one per CPU this process
may run on: the first chunk in this process, each other one in a forked
worker that renders its reports and sends the bytes back.  A sweep's JSON
reports are rendered indented for their place in the `reports` list of the
sweep document, which `_emit_analyze` writes around them, unjoined.  The
output, exit code and stderr are byte-identical to a serial run.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 a typed engine
error (non-convergence, a non-finite or singular system, a point that is not
a regular strict constrained maximum, ...), 3 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import csm as csm_mod
from .benchmarks import BenchmarkEntry, benchmark_names, get_benchmark
from .benchmarks.base import generic_checks
from .diagnostics import check_envelope
from .errors import CompstatError, ConfigurationError
from .report import (SCHEMA_VERSION, check_dict, csm_dict, encode_json, isovector_dict,
                     json_floats, matrices_to_csv, run_report, sensitivity_dict,
                     solution_dict)
from .solver import SolverConfig

_AT_KEY = re.compile(r"^at\.[A-Za-z_][A-Za-z0-9_]*$")
_FORMATS = ("json", "csv", "table")
_METHODS = ("ift", "fd", "analytic")
_BASES = ("prescribed", "nullspace")
_RECIPES = ("omega_eq7", "omega_quadratic", "omega_A1", "omega_A2", "omega_B",
            "silberberg_S", "universal_U")


@dataclass
class RunConfig:
    model: str = ""
    at: dict = field(default_factory=dict)            # group -> list of floats
    sweep: Optional[tuple] = None                     # (group, start, stop, count)
    basis: str = "prescribed"
    method: str = "ift"
    recipes: tuple = ("omega_eq7", "omega_quadratic", "silberberg_S", "universal_U")
    solver_tol: float = 1e-10
    solver_max_iter: int = 100
    out: Optional[str] = None
    format: str = "json"

    def validate(self):
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ConfigurationError(
                f"solver.tol must be finite and positive, got {self.solver_tol!r}")
        if not (isinstance(self.solver_max_iter, int) and self.solver_max_iter > 0):
            raise ConfigurationError(
                f"solver.max_iter must be a positive integer, got {self.solver_max_iter!r}")
        if self.format not in _FORMATS:
            raise ConfigurationError(f"unknown format {self.format!r}")
        if self.method not in _METHODS:
            raise ConfigurationError(f"unknown sensitivity method {self.method!r}")
        if self.basis not in _BASES:
            raise ConfigurationError(f"unknown basis kind {self.basis!r}")
        for recipe in self.recipes:
            if recipe not in _RECIPES:
                raise ConfigurationError(f"unknown recipe {recipe!r}")
        return self

    def echo(self) -> dict:
        return {
            "model": self.model, "at": self.at,
            "sweep": list(self.sweep) if self.sweep else None,
            "basis": self.basis, "sensitivity.method": self.method,
            "csm.recipes": list(self.recipes),
            "solver.tol": self.solver_tol, "solver.max_iter": self.solver_max_iter,
            "format": self.format,
        }


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise ConfigurationError(f"bad value {text!r}; parameter values must be finite")
    return value


def _parse_floats(text: str) -> list:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}") from exc
    return [_finite(v, text) for v in values]


def _parse_sweep(text: str) -> tuple:
    match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)=([^:]+):([^:]+):(\d+)$", text.strip())
    if not match:
        raise ConfigurationError(
            f"bad sweep {text!r}; expected name=start:stop:count")
    count = int(match.group(4))
    if count < 1:
        raise ConfigurationError(f"bad sweep {text!r}; count must be at least 1")
    start, stop = (_finite(float(match.group(i)), text) for i in (2, 3))
    return (match.group(1), start, stop, count)


def _parse_names(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# config key -> (RunConfig field, parser, `analyze` flag that sets the key);
# the `at.<group>` keys of --at are parsed by _parse_floats
_KEYS = {
    "model": ("model", str, "model"),
    "sweep": ("sweep", _parse_sweep, "sweep"),
    "csm.recipes": ("recipes", _parse_names, "recipes"),
    "basis": ("basis", str, "basis"),
    "sensitivity.method": ("method", str, "method"),
    "solver.tol": ("solver_tol", float, "tol"),
    "solver.max_iter": ("solver_max_iter", int, None),
    "out": ("out", str, "out"),
    "format": ("format", str, "format"),
}


def config_from_mapping(values: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in values.items():
        if _AT_KEY.match(key):
            cfg.at[key.split(".", 1)[1]] = _parse_floats(value)
            continue
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        name, parse, _ = _KEYS[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            raise ConfigurationError(f"bad value {value!r} for {key}") from exc
    return cfg.validate()


def _load_entry(spec: str) -> BenchmarkEntry:
    if ":" in spec:
        module_name, attr = spec.split(":", 1)
        try:
            entry = getattr(importlib.import_module(module_name), attr)()
        except Exception as exc:
            raise ConfigurationError(f"cannot load model factory {spec!r}: {exc}") from exc
        if not isinstance(entry, BenchmarkEntry):
            raise ConfigurationError(f"{spec!r} did not produce a catalog entry")
        return entry
    try:
        return get_benchmark(spec)
    except KeyError as exc:
        raise ConfigurationError(str(exc)) from exc


def _group_indices(parameter_names, group: str) -> list:
    names = list(parameter_names)
    if group in names:
        return [names.index(group)]
    pattern = re.compile(rf"^{re.escape(group)}_?(\d+)$")
    found = [i for i, name in enumerate(names) if pattern.match(name)]
    if not found:
        raise ConfigurationError(
            f"parameter group {group!r} matches nothing in {names}")
    return found


def resolve_points(entry: BenchmarkEntry, cfg: RunConfig) -> list:
    base = np.asarray(entry.default_point, dtype=float).copy()
    for group, values in cfg.at.items():
        idx = _group_indices(entry.model.parameter_names, group)
        if len(values) != len(idx):
            raise ConfigurationError(
                f"group {group!r} expects {len(idx)} values, got {len(values)}")
        base[idx] = values
    if cfg.sweep is None:
        return [base]
    group, start, stop, count = cfg.sweep
    idx = _group_indices(entry.model.parameter_names, group)
    if len(idx) != 1:
        raise ConfigurationError(f"sweep group {group!r} must be a single parameter")
    points = []
    for value in np.linspace(start, stop, count):
        point = base.copy()
        point[idx[0]] = value
        points.append(point)
    return points


_RECIPE_BUILDERS = {
    "omega_eq7": lambda r: r.omega_eq7,
    "omega_quadratic": lambda r: csm_mod.build_omega_quadratic(r.model, r.sol, r.sens, r.iso),
    "omega_A1": lambda r: csm_mod.build_omega_a1(r.model, r.sol, r.sens),
    "omega_A2": lambda r: csm_mod.build_omega_a2(r.model, r.sol, r.sens),
    "omega_B": lambda r: csm_mod.build_omega_b(r.model, r.sol, r.sens, r.iso),
    "silberberg_S": lambda r: csm_mod.build_silberberg(r.model, r.sol, r.sens),
    "universal_U": lambda r: csm_mod.build_universal(r.model, r.sol, r.sens),
}


def run_point(entry: BenchmarkEntry, a: np.ndarray, cfg: RunConfig,
              previous: Optional[np.ndarray] = None) -> dict:
    """One report: the envelope check, which re-solves the model, and the
    generic checks on the recipes of `cfg`.  `previous` is the preceding
    point of a sweep, from whose prediction a closed form's cross-check may
    start (see `BenchmarkEntry.prepare`)."""
    model = entry.model
    errors = []
    solver_cfg = SolverConfig(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
    run = entry.prepare("analytic", a, solver_cfg, method=cfg.method, basis=cfg.basis,
                        previous=previous)
    sol, sens, iso = run.sol, run.sens, run.iso
    timings = dict(run.timings)
    if not sol.converged:
        return run_report(
            config=cfg.echo(), model=entry.name,
            solution=solution_dict(sol), sensitivity={}, isovectors={},
            csm_results=[], checks=[],
            errors=[{"stage": "solve", "message": "solver did not converge"}],
            timings=timings)

    tick = time.perf_counter()
    results = {}
    for recipe in cfg.recipes:
        try:
            results[recipe] = _RECIPE_BUILDERS[recipe](run)
        except CompstatError as exc:
            errors.append({"stage": f"csm:{recipe}", "message": str(exc)})
    derived = run.derived
    timings["csm_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    checks = [check_envelope(model, sol, iso, sens, solver_config=solver_cfg)]
    checks += generic_checks(run, results)
    timings["checks_s"] = time.perf_counter() - tick

    return run_report(
        config=cfg.echo(), model=entry.name,
        solution=solution_dict(sol),
        sensitivity=sensitivity_dict(sens, model.parameter_names, model.decision_names),
        isovectors=isovector_dict(iso, model.parameter_names),
        csm_results=([csm_dict(r) for r in results.values()]
                     + [csm_dict(r) for r, _ in derived.values()]),
        checks=[check_dict(c) for c in checks],
        errors=errors,
        timings=timings,
    )


def cmd_analyze(cfg: RunConfig):
    """Full pipeline at one or many parameter points: each point's report
    in `cfg.format` (see `_analyze_points`; written by `_emit_analyze`) and
    the exit code."""
    if not cfg.model:
        raise ConfigurationError("no model selected; pass --model")
    entry = _load_entry(cfg.model)
    points = resolve_points(entry, cfg)
    # a sweep's reports sit two levels deep in its JSON document; each point
    # goes with its predecessor on the grid, whichever chunk that falls in
    analyzed = _map_chunks(
        functools.partial(_analyze_points, entry, cfg, 0 if len(points) == 1 else 2),
        list(zip([None] + points[:-1], points)))
    solver_failed = any(solve for _, solve, _ in analyzed)
    checks_failed = any(check for _, _, check in analyzed)
    code = 2 if solver_failed else (1 if checks_failed else 0)
    return [text for text, _, _ in analyzed], code


def _analyze_points(entry: BenchmarkEntry, cfg: RunConfig, depth: int,
                    points: list) -> list:
    """Per (preceding point or None, point) of `points`: the point's report
    in `cfg.format`, JSON as bytes nested `depth` levels deep; whether its
    solve failed; whether a check failed."""
    analyzed = []
    for previous, a in points:
        rep = run_point(entry, a, cfg, previous)
        if cfg.format == "table":
            a = [float(v) for v in rep["solution"]["a"]]    # spelled as a list
            lines = [f"model={rep['model']} a={a} "
                     f"converged={rep['solution']['converged']}"]
            for chk in rep["checks"]:
                res = "-" if chk["residual"] is None else f"{chk['residual']:.3e}"
                lines.append(f"  [{chk['verdict']:<7}] {chk['name']:<32} {res}")
            text = "\n".join(lines)
        elif cfg.format == "csv":
            text = "".join(f"# {rep['model']} {recipe}\n{body}"
                           for recipe, body in matrices_to_csv(rep).items())
        else:
            text = encode_json(rep, depth)
        analyzed.append((text, bool(rep["errors"]) and rep["errors"][0]["stage"] == "solve",
                         any(c["verdict"] == "fail" for c in rep["checks"])))
    return analyzed


def _chunks(items: list) -> list:
    """`items` in contiguous chunks of near-equal length, one per CPU this
    process may run on and at most one per item.  One chunk where the
    platform has no `os.fork` or CPU affinity, and where other threads run,
    since a forked child inherits the locks they may hold."""
    import threading
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        workers = max(1, min(len(os.sched_getaffinity(0)), len(items)))
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _map_chunks(work, items: list) -> list:
    """`work(items)` for a `work` that maps a list to a list item by item,
    computed chunk by chunk (see `_chunks`).  The first chunk runs in this
    process and each other one in a forked child, which sends back its
    results, the warnings it recorded and the exception it stopped at as
    one pickle on a pipe.  Those warnings are issued again here in chunk
    order, and the exception of the first chunk that raised is raised
    again, so the caller sees what a serial run shows.  A chunk whose child
    cannot be started, or exits without a result, runs here.  Every child
    is reaped before this returns or raises."""
    chunks = _chunks(items)
    if len(chunks) == 1:
        return work(items)
    import pickle
    import signal
    children = []                         # (pid, read end of its pipe), not yet reaped
    try:
        for chunk in chunks[1:]:
            try:
                children.append(_fork_chunk(work, chunk))
            except OSError:               # out of processes or descriptors
                break
        results = work(chunks[0])
        for chunk in chunks[1:]:
            if not children:
                results += work(chunk)
                continue
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if os.waitstatus_to_exitcode(status) != 0:
                results += work(chunk)
                continue
            rendered, caught, error = pickle.loads(data)
            if caught:
                _warn_again(caught)
            if error is not None:
                raise error
            results += rendered
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_chunk(work, chunk: list) -> tuple:
    """Fork a child that sends `work(chunk)` back on a pipe (see
    `_map_chunks`); return its pid and the read end of the pipe."""
    import pickle
    import warnings
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            result = error = None
            with warnings.catch_warnings(record=True) as caught:
                try:
                    result = work(chunk)
                except Exception as exc:   # raised again by the parent
                    error = exc
            data = pickle.dumps(
                (result, [(w.message, w.category, w.filename, w.lineno) for w in caught],
                 error))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)                # never return into the caller's stack
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _warn_again(caught: list) -> None:
    """Issue warnings a child recorded through the filters and the
    once-per-location registries of this process, as a serial run would
    have issued them."""
    import warnings
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        module = modules.get(filename)
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=None if module is None else module.__name__,
            registry=(None if module is None
                      else module.__dict__.setdefault("__warningregistry__", {})))


def cmd_verify_all(only=(), tol_override: Optional[float] = None):
    """Every benchmark's generic checks and property suite under both
    derivative pipelines (`BenchmarkEntry.run_suite`); `tol_override` sets
    every tolerance but a rank bound (a rank row's residual is a rank)."""
    if tol_override is not None and not (math.isfinite(tol_override) and tol_override > 0):
        raise ConfigurationError(f"--tol must be finite and positive, got {tol_override!r}")
    for name in only:
        if name not in benchmark_names():
            raise ConfigurationError(
                f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}")
    rows = []
    failed = False
    for name in benchmark_names():
        if only and name not in only:
            continue
        entry = get_benchmark(name)
        pipelines = ("analytic", "numeric") if entry.has_analytic else ("numeric",)
        for pipeline in pipelines:
            reports = entry.run_suite(pipeline)
            for rep in reports:
                verdict, tolerance = rep.verdict, rep.tolerance
                if tol_override is not None and rep.claim != "rank-bound":
                    tolerance = tol_override
                    if rep.residual is not None:
                        verdict = "pass" if rep.residual <= tol_override else "fail"
                rows.append({
                    "benchmark": name, "pipeline": pipeline, "check": rep.name,
                    "verdict": verdict,
                    "residual": json_floats(rep.residual),
                    "tolerance": json_floats(tolerance),
                    "claim": rep.claim,
                })
                failed = failed or verdict == "fail"
    return rows, (1 if failed else 0)


def cmd_list_models(fmt: str = "table") -> str:
    lines = []
    if fmt == "names":
        return "\n".join(benchmark_names()) + "\n"
    if fmt == "json":
        payload = []
        for name in benchmark_names():
            entry = get_benchmark(name)
            payload.append({
                "name": name, "M": entry.model.M, "N": entry.model.N,
                "K": entry.model.K, "analytic_solution": entry.has_analytic,
                "property_suite": list(entry.suite_names()),
                "description": entry.description,
            })
        return encode_json(payload).decode() + "\n"
    header = f"{'name':<26}{'M':>3}{'N':>4}{'K':>3}  {'checks':>6}  description"
    lines.append(header)
    lines.append("-" * len(header))
    for name in benchmark_names():
        entry = get_benchmark(name)
        lines.append(f"{name:<26}{entry.model.M:>3}{entry.model.N:>4}"
                     f"{entry.model.K:>3}  {len(entry.property_suite):>6}  "
                     f"{entry.description}")
    return "\n".join(lines) + "\n"


def _resolve_out_path(out: Optional[str]) -> Optional[str]:
    if out is None:
        return None
    base_dir = os.environ.get("COMPSTAT_OUT_DIR")
    if base_dir and not os.path.isabs(out):
        return os.path.join(base_dir, out)
    return out


def _emit_analyze(texts, cfg: RunConfig, stream):
    """Write the per-point reports of `cmd_analyze` as one document.  A
    sweep's JSON reports are already indented for their place in the
    envelope; no report, which can be megabytes, is copied."""
    if cfg.format == "table":
        stream.write("\n".join(texts) + "\n")
    elif cfg.format == "csv":
        stream.writelines(texts)
    elif len(texts) == 1:
        _write_bytes(stream, (texts[0], b"\n"))
    else:
        head = b'{\n  "schema_version": "%s",\n  "reports": [\n    ' % SCHEMA_VERSION.encode()
        pieces = [head] + [piece for text in texts for piece in (text, b",\n    ")]
        _write_bytes(stream, pieces[:-1] + [b"\n  ]\n}\n"])


def _write_bytes(stream, pieces):
    """Write the ASCII `pieces` to the binary buffer of `stream`, or as text if it has none."""
    if not hasattr(stream, "buffer"):
        return stream.writelines(piece.decode() for piece in pieces)
    stream.flush()                        # what the text layer holds goes first
    stream.buffer.writelines(pieces)


def _emit_verify(rows, fmt: str, stream):
    if fmt == "json":
        _write_bytes(stream, (encode_json(rows), b"\n"))
        return
    lines = []
    summary = {}
    for row in rows:
        key = (row["benchmark"], row["pipeline"])
        passed, total = summary.get(key, (0, 0))
        summary[key] = (passed + (row["verdict"] == "pass"), total + 1)
    for (name, pipeline), (passed, total) in summary.items():
        status = "pass" if passed == total else "FAIL"
        lines.append(f"{status}  {name:<26} [{pipeline}] {passed}/{total}")
    stream.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The text stream a command writes to: the file `out` or stdout."""
    path = _resolve_out_path(out)
    if path is None:
        yield sys.stdout
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        yield handle


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="compstat",
        description="compensated-derivative comparative statics engine")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on one model")
    analyze.add_argument("--model", help="catalog name or module:factory")
    analyze.add_argument("--at", nargs="+", action="extend", default=[],
                         metavar="GROUP=V1,V2", help="override parameter groups")
    analyze.add_argument("--sweep", metavar="GROUP=START:STOP:COUNT")
    analyze.add_argument("--config", metavar="PATH", help="key = value config file")
    analyze.add_argument("--recipes", metavar="CSV")
    analyze.add_argument("--basis", choices=_BASES)
    analyze.add_argument("--method", choices=_METHODS)
    analyze.add_argument("--tol", type=float, help="solver tolerance")
    analyze.add_argument("--out", metavar="PATH")
    analyze.add_argument("--format", choices=_FORMATS)

    verify = sub.add_parser("verify-all", help="run every benchmark suite")
    verify.add_argument("--only", metavar="CSV", help="restrict to listed benchmarks")
    verify.add_argument("--tol", type=float, help="override every tolerance but rank bounds")
    verify.add_argument("--out", metavar="PATH")
    verify.add_argument("--format", choices=("table", "json"), default="table")

    listing = sub.add_parser("list-models", help="enumerate the catalog")
    listing.add_argument("--format", choices=("table", "json", "names"),
                         default="table")
    return parser


def _analyze_config(args) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for item in args.at:
        if "=" not in item:
            raise ConfigurationError(f"bad --at {item!r}; expected GROUP=V1,V2")
        group, text = item.split("=", 1)
        values[f"at.{group.strip()}"] = text
    for key, (_, _, flag) in _KEYS.items():
        value = getattr(args, flag) if flag else None
        if value not in (None, ""):
            values[key] = str(value)
    return config_from_mapping(values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            cfg = _analyze_config(args)
            texts, code = cmd_analyze(cfg)
            with _output(cfg.out) as stream:
                _emit_analyze(texts, cfg, stream)
            return code
        if args.command == "verify-all":
            only = tuple(v.strip() for v in (args.only or "").split(",") if v.strip())
            rows, code = cmd_verify_all(only=only, tol_override=args.tol)
            with _output(args.out) as stream:
                _emit_verify(rows, args.format, stream)
            return code
        if args.command == "list-models":
            sys.stdout.write(cmd_list_models(args.format))
            return 0
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 3
    except CompstatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
