"""Command-line front end: configuration, the solve -> differentiate ->
compensate -> assemble -> check pipeline, and report emission.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 the solver
did not converge, 3 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import csm as csm_mod
from .benchmarks import BenchmarkEntry, BenchRun, benchmark_names, get_benchmark
from .diagnostics import (CheckReport, check_envelope, check_hatta_reduction,
                          check_invariance, check_rank_bound, check_semidefinite)
from .errors import CompstatError, ConfigurationError
from .geometry import build_isovectors, gcd_apply, verify_conformance
from .report import (RunReport, check_dict, csm_dict, isovector_dict,
                     matrices_to_csv, sensitivity_dict, solution_dict, write_json)
from .sensitivity import (decision_jacobian_analytic, decision_jacobian_fd,
                          decision_jacobian_ift)
from .solver import SolverConfig, solve_interior

_KNOWN_KEYS = {
    "model", "sweep", "basis", "out", "format", "only",
    "solver.tol", "solver.max_iter",
    "sensitivity.method", "sensitivity.step",
    "csm.recipes", "checks.tol", "checks.envelope_tol",
}
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
    fd_step: Optional[float] = None
    check_tol: float = 1e-7
    envelope_tol: float = 1e-5
    out: Optional[str] = None
    format: str = "json"
    only: tuple = ()

    def validate(self):
        for name, value in (("solver.tol", self.solver_tol),
                            ("checks.tol", self.check_tol),
                            ("checks.envelope_tol", self.envelope_tol)):
            if value <= 0:
                raise ConfigurationError(f"tolerance {name} must be positive")
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
            "checks.tol": self.check_tol, "checks.envelope_tol": self.envelope_tol,
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


def config_from_mapping(values: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in values.items():
        if key == "model":
            cfg.model = value
        elif _AT_KEY.match(key):
            cfg.at[key.split(".", 1)[1]] = _parse_floats(value)
        elif key == "sweep":
            cfg.sweep = _parse_sweep(value)
        elif key == "basis":
            cfg.basis = value
        elif key == "sensitivity.method":
            cfg.method = value
        elif key == "sensitivity.step":
            cfg.fd_step = float(value)
        elif key == "csm.recipes":
            cfg.recipes = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "solver.tol":
            cfg.solver_tol = float(value)
        elif key == "solver.max_iter":
            cfg.solver_max_iter = int(value)
        elif key == "checks.tol":
            cfg.check_tol = float(value)
        elif key == "checks.envelope_tol":
            cfg.envelope_tol = float(value)
        elif key == "out":
            cfg.out = value
        elif key == "format":
            cfg.format = value
        elif key == "only":
            cfg.only = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    return cfg.validate()


def _parse_floats(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}") from exc


def _parse_sweep(text: str) -> tuple:
    match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)=([^:]+):([^:]+):(\d+)$", text.strip())
    if not match:
        raise ConfigurationError(
            f"bad sweep {text!r}; expected name=start:stop:count")
    return (match.group(1), float(match.group(2)), float(match.group(3)),
            int(match.group(4)))


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
    "omega_eq7": lambda m, s, se, iso: csm_mod.build_omega(m, s, se, iso),
    "omega_quadratic": lambda m, s, se, iso: csm_mod.build_omega_quadratic(m, s, se, iso),
    "omega_A1": lambda m, s, se, iso: csm_mod.build_omega_a1(m, s, se),
    "omega_A2": lambda m, s, se, iso: csm_mod.build_omega_a2(m, s, se),
    "omega_B": lambda m, s, se, iso: csm_mod.build_omega_b(m, s, se, iso),
    # (matrix, tangent verdict); run_point checks the verdict
    "silberberg_S": lambda m, s, se, iso: csm_mod.build_silberberg(m, s, se),
    "universal_U": lambda m, s, se, iso: csm_mod.build_universal(m, s, se),
}


def run_point(entry: BenchmarkEntry, a: np.ndarray, cfg: RunConfig) -> RunReport:
    model = entry.model
    timings = {}
    errors = []
    solver_cfg = SolverConfig(tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)

    tick = time.perf_counter()
    sol = solve_interior(model, a, x0=entry.x0, config=solver_cfg)
    timings["solve_s"] = time.perf_counter() - tick
    if not sol.converged:
        return RunReport(
            config=cfg.echo(), model=entry.name,
            solution=solution_dict(sol), sensitivity={}, isovectors={},
            csm_results=[], checks=[],
            errors=[{"stage": "solve", "message": "solver did not converge"}],
            timings=timings)

    tick = time.perf_counter()
    if cfg.method == "fd":
        sens = decision_jacobian_fd(model, a, solver_cfg, h=cfg.fd_step, x0=sol.x)
    elif cfg.method == "analytic" and entry.analytic_x_jac is not None:
        sens = decision_jacobian_analytic(model, sol, entry.analytic_x_jac,
                                          entry.analytic_lam_jac)
    else:
        sens = decision_jacobian_ift(model, sol)
    timings["sensitivity_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    if cfg.basis == "prescribed":
        iso = entry.isovector_recipe(model, sol, sens)
    else:
        stack = model.con_grad_a_stack(sol.x, sol.a)
        iso = build_isovectors(stack) if model.K else build_isovectors(
            np.zeros((0, model.N)))
    timings["isovectors_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    results = {}
    tangent_verdict = None
    for recipe in cfg.recipes:
        try:
            built = _RECIPE_BUILDERS[recipe](model, sol, sens, iso)
            if recipe == "silberberg_S":
                built, tangent_verdict = built
            results[recipe] = built
        except CompstatError as exc:
            errors.append({"stage": f"csm:{recipe}", "message": str(exc)})
    derived = {}
    if entry.derived_matrices is not None:
        run_ctx = BenchRun(entry=entry, model=model, sol=sol, sens=sens,
                           iso=iso, pipeline="cli")
        for name, (matrix, sign) in entry.derived_matrices(run_ctx).items():
            labels = (model.decision_names
                      if matrix.shape[0] == model.M else
                      tuple(f"r{i + 1}" for i in range(matrix.shape[0])))
            derived[name] = (csm_mod.from_matrix(
                matrix, f"derived:{name}", f"{sign}_semidefinite_expected",
                labels=labels), sign)
    timings["csm_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    checks = []
    checks.append(check_envelope(model, sol, iso, solver_config=solver_cfg,
                                 tol=cfg.envelope_tol))
    for gen in model.invariance_generators:
        checks.append(check_invariance(model, gen, sol, sens, tol=cfg.envelope_tol))
    for recipe, result in results.items():
        if recipe == "silberberg_S":
            # semidefinite only subject to constraints: test on the tangent
            # subspace of the parameter-space constraint gradients
            verdict = tangent_verdict
            scale = max(1.0, abs(verdict.max_eigenvalue))
            checks.append(CheckReport(
                name="semidefinite[silberberg_S|tangent]",
                verdict="pass" if verdict.passed else "fail",
                residual=max(0.0, -verdict.min_eigenvalue) / scale,
                tolerance=cfg.check_tol, claim="tangent-restricted-semidefinite",
                details={"subspace_dim": verdict.subspace_dim}))
            continue
        checks.append(check_semidefinite(
            result, "positive", tol=cfg.check_tol,
            symmetry_tol=max(cfg.check_tol, 1e-8), name=f"semidefinite[{recipe}]"))
        checks.append(check_rank_bound(result, model.M, model.K,
                                       name=f"rank_bound[{recipe}]"))
    for name, (result, sign) in derived.items():
        checks.append(check_semidefinite(
            result, sign, tol=max(cfg.check_tol, 1e-7),
            symmetry_tol=max(cfg.check_tol, 1e-7),
            name=f"semidefinite[derived:{name}]"))
    if model.K:
        x_semi = gcd_apply(iso, sens.x_jac)
        table, ok = verify_conformance(
            x_semi, model.con_grad_x_stack(sol.x, sol.a), tol=1e-6)
        res = float(np.max(np.abs(table))) if table.size else 0.0
        checks.append(CheckReport(
            name="conformance", verdict="pass" if ok else "fail",
            residual=res, tolerance=1e-6, claim="constraint-conformance",
            details={}))
    if "omega_eq7" in results:
        ref = results["omega_eq7"].matrix
        scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 0.0)
        for other, transform in (("omega_quadratic", None),
                                 ("silberberg_S", "sandwich"),
                                 ("universal_U", "sandwich")):
            if other not in results:
                continue
            mat = results[other].matrix
            if transform == "sandwich":
                mat = iso.vectors @ mat @ iso.vectors.T
            res = float(np.max(np.abs(mat - ref))) / scale
            verdict = "pass" if res <= 1e-6 else "fail"
            checks.append(CheckReport(
                name=f"coherence[{other}]", verdict=verdict, residual=res,
                tolerance=1e-6, claim="recipe-cross-identity", details={}))
    checks.append(check_hatta_reduction(model, sol, sens))
    timings["checks_s"] = time.perf_counter() - tick

    return RunReport(
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
    """Full pipeline at one or many parameter points."""
    if not cfg.model:
        raise ConfigurationError("no model selected; pass --model")
    entry = _load_entry(cfg.model)
    reports = [run_point(entry, a, cfg) for a in resolve_points(entry, cfg)]
    solver_failed = any(r.errors and r.errors[0].get("stage") == "solve"
                        for r in reports)
    checks_failed = any(not r.all_checks_pass for r in reports)
    code = 2 if solver_failed else (1 if checks_failed else 0)
    return reports, code


def cmd_verify_all(only=(), tol_override: Optional[float] = None):
    """Every benchmark's property suite under both derivative pipelines."""
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
                verdict = rep.verdict
                if tol_override is not None and rep.residual is not None:
                    verdict = "pass" if rep.residual <= tol_override else "fail"
                rows.append({
                    "benchmark": name, "pipeline": pipeline, "check": rep.name,
                    "verdict": verdict,
                    "residual": rep.residual, "tolerance":
                        tol_override if tol_override is not None else rep.tolerance,
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
        text = io.StringIO()
        write_json(payload, text)
        return text.getvalue()
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


def _emit_analyze(reports, cfg: RunConfig, stream):
    if cfg.format == "table":
        lines = []
        for rep in reports:
            d = rep.to_dict()
            lines.append(f"model={d['model']} a={d['solution']['a']} "
                         f"converged={d['solution']['converged']}")
            for chk in d["checks"]:
                res = "-" if chk["residual"] is None else f"{chk['residual']:.3e}"
                lines.append(f"  [{chk['verdict']:<7}] {chk['name']:<32} {res}")
        stream.write("\n".join(lines) + "\n")
    elif cfg.format == "csv":
        for rep in reports:
            for recipe, body in matrices_to_csv(rep.to_dict()).items():
                stream.write(f"# {rep.model} {recipe}\n{body}")
    elif len(reports) == 1:
        reports[0].to_json(stream)
    else:
        write_json({"schema_version": reports[0].schema_version,
                    "reports": [r.to_dict() for r in reports]}, stream)


def _emit_verify(rows, fmt: str, stream):
    if fmt == "json":
        write_json(rows, stream)
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


def build_parser() -> argparse.ArgumentParser:
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
    verify.add_argument("--tol", type=float, help="override every check tolerance")
    verify.add_argument("--out", metavar="PATH")
    verify.add_argument("--format", choices=("table", "json"), default="table")

    listing = sub.add_parser("list-models", help="enumerate the catalog")
    listing.add_argument("--format", choices=("table", "json", "names"),
                         default="table")
    return parser


def _analyze_config(args) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    if args.model:
        values["model"] = args.model
    for item in args.at:
        if "=" not in item:
            raise ConfigurationError(f"bad --at {item!r}; expected GROUP=V1,V2")
        group, text = item.split("=", 1)
        values[f"at.{group.strip()}"] = text
    if args.sweep:
        values["sweep"] = args.sweep
    if args.recipes:
        values["csm.recipes"] = args.recipes
    if args.basis:
        values["basis"] = args.basis
    if args.method:
        values["sensitivity.method"] = args.method
    if args.tol is not None:
        values["solver.tol"] = str(args.tol)
    if args.out:
        values["out"] = args.out
    if args.format:
        values["format"] = args.format
    return config_from_mapping(values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            cfg = _analyze_config(args)
            reports, code = cmd_analyze(cfg)
            with _output(cfg.out) as stream:
                _emit_analyze(reports, cfg, stream)
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
