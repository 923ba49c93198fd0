"""What each check can catch.

Each mutation in MUTATIONS breaks the engine in one small, structured way,
in process, and FLIPS pins which mutations turn each check from pass to
fail:
  - every `verify-all` row, keyed by (benchmark, pipeline, check);
  - every `analyze` check at the nine catalog defaults with `--method ift`
    and with `--method fd`;
  - the same checks on each default's FD-only twin (`--method ift`): its
    derivative callables, closed form and `analytic_x_jac` replaced by None.
Only rows that pass unmutated are pinned.  STOPS pins the runs that a
mutation stops with a typed error instead, which no row has to catch.

A check stays in the catalog only while some mutation flips it: a check
that none flips has shown no defect it can catch.  Nor does a check stay
whose flips lie, on every run, within those of `first_order_system`, the
differentiated first-order conditions: that row already catches them.  A row that flips when
the direction rows are merely rotated within their span is wrong, unless
it states entries on the entry's own prescribed rows.  When a change to the
engine or the catalog moves this table, update the literals and say which
rows moved and why;

    PYTHONPATH=src python tests/test_check_power.py

prints them as observed.
"""

import dataclasses
import functools
import sys
import warnings

import numpy as np
import pytest

from compstat import benchmarks, cli, fd
from compstat import model as model_module
from compstat.benchmarks import BenchmarkEntry, benchmark_names, get_benchmark
from compstat.cli import RunConfig, run_point
from compstat.csm import build_omega, from_matrix
from compstat.diagnostics import CheckReport
from compstat.errors import CompstatError
from compstat.geometry import null_property_residuals
from compstat.solver import SolverConfig, newton_solve, solve_interior

from conftest import fd_only


def _replace_everywhere(monkeypatch, original, replacement):
    """Bind `replacement` wherever a compstat module holds `original`."""
    for module in [m for name, m in sys.modules.items() if name.startswith("compstat")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _on_entries(monkeypatch, change):
    """Serve `change(entry)` for every catalog entry."""
    for name in benchmark_names():
        monkeypatch.setitem(benchmarks._CACHE, name, change(get_benchmark(name)))


def _on_runs(monkeypatch, change):
    """Replace every converged prepared run by `change(run)`."""
    prepare = BenchmarkEntry.prepare

    def changed(self, *args, **kwargs):
        run = prepare(self, *args, **kwargs)
        return run if run.sens is None else change(run)

    monkeypatch.setattr(BenchmarkEntry, "prepare", changed)


def _newton_tol(monkeypatch):
    def loose(model, a, x0, config=SolverConfig(), lam0=None, factor=None):
        return newton_solve(model, a, x0, dataclasses.replace(config, tol=1e-5), lam0, factor)
    _replace_everywhere(monkeypatch, newton_solve, loose)


def _negated_grad_a_stencil(monkeypatch):
    stencil = model_module._stencil

    def negated(model, kind, k, x, a):
        block = stencil(model, kind, k, x, a)
        return -block if kind == "grad_a" else block
    monkeypatch.setattr(model_module, "_stencil", negated)


def _unscaled_step(monkeypatch):
    monkeypatch.setattr(fd, "step_for", lambda value, base=fd.STEP_FIRST: base)


def _swapped_steps(monkeypatch):
    first, nested = fd.STEP_FIRST, fd.STEP_NESTED
    monkeypatch.setattr(fd, "STEP_FIRST", nested)
    monkeypatch.setattr(fd, "STEP_NESTED", first)
    monkeypatch.setattr(fd.step_for, "__defaults__", (nested,))


def _omega_sign(monkeypatch):
    def flipped(model, sol, sens, iso):
        omega = build_omega(model, sol, sens, iso)
        return from_matrix(-omega.matrix, omega.recipe, omega.sign_convention,
                           labels=omega.labels)
    _replace_everywhere(monkeypatch, build_omega, flipped)


def _multipliers_times(factor):
    def mutate(monkeypatch):
        for solve in (newton_solve, solve_interior):
            def scaled(*args, _solve=solve, **kwargs):
                sol = _solve(*args, **kwargs)
                return dataclasses.replace(sol, lam=factor * sol.lam)
            _replace_everywhere(monkeypatch, solve, scaled)
    return mutate


def _closed_form(monkeypatch):
    def change(entry):
        solution = entry.model.analytic_solution
        if solution is None:
            return entry

        def moved(a):
            x, lam = solution(a)
            return (1.0 + 1e-3) * np.asarray(x, dtype=float), lam
        return dataclasses.replace(
            entry, model=dataclasses.replace(entry.model, analytic_solution=moved))
    _on_entries(monkeypatch, change)


def _analytic_x_jac(monkeypatch):
    def change(entry):
        if entry.analytic_x_jac is None:
            return entry
        jac = entry.analytic_x_jac
        return dataclasses.replace(entry, analytic_x_jac=lambda a: (
            jac(a) + 1e-3 * np.arange(1, entry.model.M + 1)[:, None]))
    _on_entries(monkeypatch, change)


def _registered_block(kind, change):
    """A mutation that replaces the objective's block `kind`, wherever a
    model registers a callable for it, by `change(block, x, a)`."""
    def mutate(monkeypatch):
        block = model_module._block

        def changed(model, which, k, x, a):
            out = block(model, which, k, x, a)
            if which == kind and k is None and model_module._registered(model, kind, k):
                out = change(out, x, a)
            return out
        monkeypatch.setattr(model_module, "_block", changed)
    return mutate


def _x_jac_columns(monkeypatch):
    # column mu of dx/da scaled by 1 + 1e-3 (mu + 1): a uniform scale would
    # leave every identity sum_mu A_mu dx/da_mu = 0 of the catalog intact
    def change(run):
        scale = 1.0 + 1e-3 * np.arange(1, run.model.N + 1)
        return dataclasses.replace(
            run, sens=dataclasses.replace(run.sens, x_jac=run.sens.x_jac * scale))
    _on_runs(monkeypatch, change)


def _off_tangent(monkeypatch):
    # the compensated columns dx/da T^T moved along the constraint normals
    # until G_x dx/da T^T reaches 0.9 of 1e-6 max(1, max|G_x| max(1, max|dx/da T^T|))
    def change(run):
        gx, vectors = run.sol.blocks.Gx, run.iso.vectors
        if not gx.shape[0]:
            return run
        x_jac = run.sens.x_jac
        bound = 1e-6 * max(1.0, np.max(np.abs(gx)) * max(1.0, np.max(np.abs(x_jac @ vectors.T))))
        push = np.linalg.pinv(gx) @ np.ones((gx.shape[0], 1)) @ vectors.sum(axis=0)[None, :]
        table = gx @ push @ vectors.T
        push *= 0.9 * bound / np.max(np.abs(table))
        return dataclasses.replace(
            run, sens=dataclasses.replace(run.sens, x_jac=x_jac + push))
    _on_runs(monkeypatch, change)


MUTATIONS = {
    "newton_tol": _newton_tol,                  # every Newton solve stops at 1e-5
    "fa_stencil": _negated_grad_a_stencil,      # differenced grad_a blocks negated
    "unscaled_step": _unscaled_step,            # fd.step_for without max(1, |v|)
    "swap_steps": _swapped_steps,               # STEP_FIRST and STEP_NESTED swapped
    "omega_sign": _omega_sign,                  # build_omega returns -Omega
    "lam_scale": _multipliers_times(1.01),      # solved multipliers scaled by 1.01
    "lam_sign": _multipliers_times(-1.0),       # solved multipliers negated
    "closed_form": _closed_form,                # registered x(a) scaled by 1 + 1e-3
    "analytic_jac": _analytic_x_jac,            # registered dx/da row i plus 1e-3 (i + 1)
    # registered f_xx more concave by 1e-3: every inertia stays that of a maximum
    "f_xx": _registered_block(
        "hess_xx", lambda block, x, a: block - 1e-3 * np.eye(x.size)),
    # registered f_xa row i plus 1e-3 (i + 1): a shift along the ones vector
    # would be normal to the tangent space of a budget at equal prices
    "f_xa": _registered_block(
        "hess_xa", lambda block, x, a: block + 1e-3 * np.arange(1, x.size + 1)[:, None]),
    # registered f_a entry mu plus 1e-3 (mu + 1)
    "f_a": _registered_block(
        "grad_a", lambda block, x, a: block + 1e-3 * np.arange(1, a.size + 1)),
    "jac_cols": _x_jac_columns,                 # dx/da column mu scaled by 1 + 1e-3 (mu + 1)
    "off_null": _off_tangent,                   # compensated columns just off the tangent space
}


def _rotated_directions(monkeypatch):
    # the first two direction rows turned by 0.5 rad within their span: a
    # basis of the same tangent space, on which every analyze row must hold
    def change(run):
        turn = np.eye(run.iso.count)
        turn[:2, :2] = [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
        vectors = turn @ run.iso.vectors
        return dataclasses.replace(run, iso=dataclasses.replace(
            run.iso, vectors=vectors,
            null_residuals=null_property_residuals(vectors, run.sol.blocks.Ga)))
    _on_runs(monkeypatch, change)


def _not_run(*args, **kwargs):
    return CheckReport("envelope", "skipped", None, None, "envelope-identity")


def observe() -> tuple:
    """(verdicts, stopped): route + (check,) -> verdict for every row, and
    the routes stopped by a typed error, over the runs the module names."""
    verdicts, stopped = {}, set()
    for name in benchmark_names():
        entry = get_benchmark(name)
        for pipeline in ("analytic", "numeric") if entry.has_analytic else ("numeric",):
            route = ("verify-all", name, pipeline)
            try:
                reports = entry.run_suite(pipeline)
            except CompstatError:
                stopped.add(route)
                continue
            verdicts.update({route + (rep.name,): rep.verdict for rep in reports})
        for method, analyzed in (("ift", entry), ("fd", entry), ("twin", fd_only(entry))):
            route = ("analyze", name, method)
            cfg = RunConfig(model=name, method="fd" if method == "fd" else "ift")
            try:
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if method == "twin":
                        # its stencil re-solves do not reach 1e-12 on FD blocks
                        # (it reads skipped unmutated), and they cost the most
                        monkeypatch.setattr(cli, "check_envelope", _not_run)
                    rep = run_point(analyzed, analyzed.default_point, cfg)
            except CompstatError:
                stopped.add(route)
                continue
            if rep["errors"] and rep["errors"][0]["stage"] == "solve":
                stopped.add(route)
                continue
            verdicts.update({route + (chk["name"],): chk["verdict"] for chk in rep["checks"]})
    return verdicts, stopped


def _observe_under(mutate) -> tuple:
    with pytest.MonkeyPatch.context() as monkeypatch:
        mutate(monkeypatch)
        return observe()


@functools.lru_cache(maxsize=None)
def power_table() -> tuple:
    """(flips, stops, rotated): row -> the mutations, in MUTATIONS order, that
    turn it from pass to fail, for every row that passes unmutated; route ->
    the mutations that stop it with a typed error; the rows that fail when
    the direction rows are rotated."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base, base_stopped = observe()
        assert not base_stopped, base_stopped
        flips = {row: () for row, verdict in base.items() if verdict == "pass"}
        stops = {}
        for name, mutate in MUTATIONS.items():
            verdicts, stopped = _observe_under(mutate)
            for row in flips:
                if verdicts.get(row) == "fail":
                    flips[row] += (name,)
            for route in stopped:
                stops[route] = stops.get(route, ()) + (name,)
        verdicts, stopped = _observe_under(_rotated_directions)
    assert not stopped, stopped
    return flips, stops, sorted(row for row in flips if verdicts.get(row) == "fail")


def _flips_text(flips: dict) -> str:
    """`flips` as FLIPS spells it: a line per route, then one per row."""
    lines, route = [], None
    for row, names in sorted(flips.items()):
        if row[:3] != route:
            route = row[:3]
            lines.append(" ".join(route))
        lines.append(f"  {row[3]}: {' '.join(names)}".rstrip())
    return "\n".join(lines)


def _stops_text(stops: dict) -> str:
    return "\n".join(f"{' '.join(route)}: {' '.join(names)}"
                     for route, names in sorted(stops.items()))


def _pinned(text: str, name: str) -> list:
    """The lines of a pinned table that belong to benchmark `name`."""
    lines, keep = [], False
    for line in text.strip().splitlines():
        if not line.startswith(" "):
            keep = line.split()[1].rstrip(":") == name
        if keep:
            lines.append(line)
    return lines


@pytest.mark.parametrize("name", benchmark_names())
def test_each_row_is_flipped_by_the_pinned_mutations(name):
    flips, stops, _ = power_table()
    assert _flips_text({row: names for row, names in flips.items() if row[1] == name}
                       ).splitlines() == _pinned(FLIPS, name)
    assert _stops_text({route: names for route, names in stops.items() if route[1] == name}
                       ).splitlines() == _pinned(STOPS, name)


def test_every_check_in_the_catalog_catches_something():
    # a generic check by its name, over every model; an oracle per model
    flips, _, _ = power_table()
    caught = {}
    for (_, name, _, check), names in flips.items():
        key = (name, check) if check in get_benchmark(name).suite_names() else check
        caught[key] = caught.get(key, False) or bool(names)
    assert [key for key, flipped in caught.items() if not flipped] == []


def test_no_row_restates_the_first_order_system():
    # a row whose flips lie, on every run where it appears, within those of
    # first_order_system on that run has shown nothing that row does not
    # catch; a generic check by its name, over every model; an oracle per model
    flips, _, _ = power_table()
    within = {}
    for (command, name, route, check), names in flips.items():
        if check == "first_order_system":
            continue
        first_order = flips[command, name, route, "first_order_system"]
        key = (name, check) if check in get_benchmark(name).suite_names() else check
        within[key] = within.get(key, True) and set(names) <= set(first_order)
    assert [key for key, restated in within.items() if restated] == []


def test_rotated_directions_move_only_the_oracles_stated_on_prescribed_rows():
    # each of these compares entries of Omega with a block formula in the
    # entry's own prescribed rows; no generic row and no analyze row moves
    _, _, rotated = power_table()
    assert rotated == [
        ("verify-all", "cost_constrained_profit", "analytic", "expenditure_block_csm"),
        ("verify-all", "cost_constrained_profit", "numeric", "expenditure_block_csm"),
        ("verify-all", "efficient_portfolio", "analytic", "csm_block_structure"),
        ("verify-all", "efficient_portfolio", "numeric", "csm_block_structure"),
        ("verify-all", "market_power", "numeric", "g_matrix_from_recipe"),
        ("verify-all", "multi_constraint_utility", "numeric", "double_block_structure"),
        ("verify-all", "principal_agent", "analytic", "contract_csm_blocks"),
        ("verify-all", "principal_agent", "numeric", "contract_csm_blocks"),
        ("verify-all", "slutsky_hicks", "analytic", "omega_is_scaled_sigma"),
        ("verify-all", "slutsky_hicks", "numeric", "omega_is_scaled_sigma"),
    ]


# FLIPS: per route (command, benchmark, pipeline or method), each row that
# passes unmutated and the mutations that turn it to fail.  STOPS: the runs
# a mutation stops with a typed error.
FLIPS = """
analyze cost_constrained_profit fd
  coherence[universal_U]: omega_sign lam_scale lam_sign f_xa jac_cols
  envelope:
  first_order_system: lam_scale lam_sign f_xx f_xa jac_cols
  hatta_reduction: omega_sign f_xa
  invariance[input_price_cost_scale]: jac_cols
  invariance[output_price_scale]: jac_cols
  rank_bound[omega_eq7]: lam_scale lam_sign f_xa jac_cols off_null
  semidefinite[derived:expenditure_substitution]: jac_cols off_null
  semidefinite[derived:output_price_block]: jac_cols off_null
  semidefinite[omega_eq7]: omega_sign lam_scale lam_sign f_xa jac_cols off_null
  semidefinite[silberberg_S|tangent]: lam_scale lam_sign f_xa jac_cols off_null
  semidefinite[universal_U]: lam_scale lam_sign f_xa jac_cols
analyze cost_constrained_profit ift
  coherence[universal_U]: omega_sign jac_cols
  envelope:
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[input_price_cost_scale]: f_xa jac_cols
  invariance[output_price_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:expenditure_substitution]: lam_sign f_xa jac_cols off_null
  semidefinite[derived:output_price_block]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze cost_constrained_profit twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign
  invariance[input_price_cost_scale]: jac_cols
  invariance[output_price_scale]: jac_cols
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:expenditure_substitution]: lam_sign jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze efficient_portfolio fd
  coherence[universal_U]: swap_steps omega_sign lam_scale lam_sign f_xa jac_cols off_null
  envelope: swap_steps f_a
  first_order_system: lam_scale lam_sign f_xx f_xa jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[scale_budget]: jac_cols off_null
  invariance[scale_returns]: jac_cols off_null
  invariance[scale_variances]: jac_cols off_null
  rank_bound[omega_eq7]: swap_steps lam_sign jac_cols off_null
  semidefinite[derived:budget_substitution]: lam_sign jac_cols off_null
  semidefinite[derived:return_substitution]: swap_steps lam_sign jac_cols off_null
  semidefinite[derived:squared_share_response]: jac_cols off_null
  semidefinite[omega_eq7]: swap_steps omega_sign lam_scale lam_sign f_xa jac_cols off_null
  semidefinite[silberberg_S|tangent]: lam_sign jac_cols off_null
  semidefinite[universal_U]: swap_steps lam_scale lam_sign f_xa jac_cols
analyze efficient_portfolio ift
  coherence[universal_U]: omega_sign jac_cols off_null
  envelope: swap_steps f_a
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[scale_budget]: f_xa jac_cols off_null
  invariance[scale_returns]: f_xa jac_cols off_null
  invariance[scale_variances]: f_xa jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:budget_substitution]: f_xa jac_cols off_null
  semidefinite[derived:return_substitution]: f_xa jac_cols off_null
  semidefinite[derived:squared_share_response]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze efficient_portfolio twin
  coherence[universal_U]: omega_sign jac_cols off_null
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign
  invariance[scale_budget]: jac_cols off_null
  invariance[scale_returns]: jac_cols off_null
  invariance[scale_variances]: jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:budget_substitution]: jac_cols off_null
  semidefinite[derived:return_substitution]: jac_cols off_null
  semidefinite[derived:squared_share_response]: jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze market_power fd
  coherence[universal_U]: omega_sign f_xa jac_cols
  envelope: f_a
  first_order_system: newton_tol lam_scale lam_sign f_xx f_xa jac_cols
  hatta_reduction: omega_sign f_xa
  rank_bound[omega_eq7]: f_xa jac_cols off_null
  semidefinite[derived:price_impact_substitution]: lam_sign jac_cols off_null
  semidefinite[omega_eq7]: omega_sign lam_sign f_xa jac_cols
  semidefinite[silberberg_S|tangent]: lam_sign f_xa jac_cols
  semidefinite[universal_U]: lam_scale lam_sign f_xa jac_cols
analyze market_power ift
  coherence[universal_U]: omega_sign jac_cols
  envelope: f_a
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:price_impact_substitution]: lam_sign f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze market_power twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:price_impact_substitution]: swap_steps lam_sign jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze multi_constraint_utility fd
  coherence[universal_U]: omega_sign f_xa jac_cols
  envelope: f_a
  first_order_system: newton_tol lam_scale lam_sign f_xx f_xa jac_cols
  rank_bound[omega_eq7]: swap_steps f_xa jac_cols off_null
  semidefinite[derived:substitution_block_1]: swap_steps jac_cols off_null
  semidefinite[omega_eq7]: swap_steps omega_sign lam_sign f_xa jac_cols off_null
  semidefinite[silberberg_S|tangent]: newton_tol swap_steps lam_sign f_xa jac_cols
  semidefinite[universal_U]: lam_scale lam_sign f_xa jac_cols
analyze multi_constraint_utility ift
  coherence[universal_U]: omega_sign jac_cols
  envelope: f_a
  first_order_system: jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:substitution_block_1]: lam_sign f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze multi_constraint_utility twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:substitution_block_1]: lam_sign jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze multi_output_profit fd
  coherence[universal_U]: omega_sign f_xa jac_cols
  envelope: f_a
  first_order_system: f_xx f_xa jac_cols
  invariance[price_scale]: jac_cols
  rank_bound[omega_eq7]: f_xa jac_cols
  semidefinite[derived:io_response_block]: jac_cols
  semidefinite[omega_eq7]: omega_sign f_xa jac_cols
  semidefinite[silberberg_S|tangent]: f_xa jac_cols
  semidefinite[universal_U]: f_xa jac_cols
analyze multi_output_profit ift
  coherence[universal_U]: omega_sign jac_cols
  envelope: f_a
  first_order_system: jac_cols
  invariance[price_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[derived:io_response_block]: f_xa jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze multi_output_profit twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols
  invariance[price_scale]: jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[derived:io_response_block]: unscaled_step swap_steps jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze pareto_allocation fd
  coherence[universal_U]: omega_sign lam_scale f_xa jac_cols off_null
  envelope: f_a
  first_order_system: newton_tol lam_scale f_xx f_xa jac_cols
  rank_bound[omega_eq7]: lam_scale jac_cols
  semidefinite[omega_eq7]: omega_sign lam_scale f_xa jac_cols
  semidefinite[silberberg_S|tangent]: lam_scale jac_cols
  semidefinite[universal_U]: newton_tol lam_scale f_xa jac_cols
analyze pareto_allocation ift
  coherence[universal_U]: omega_sign jac_cols off_null
  envelope: f_a
  first_order_system: jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze pareto_allocation twin
  coherence[universal_U]: omega_sign jac_cols off_null
  first_order_system: jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze principal_agent fd
  coherence[universal_U]: swap_steps omega_sign lam_scale f_xa jac_cols off_null
  envelope: f_a
  first_order_system: lam_scale f_xx f_xa jac_cols
  invariance[effort_1_block_scale]: jac_cols
  invariance[effort_2_block_scale]: jac_cols
  rank_bound[omega_eq7]: swap_steps lam_scale f_xa jac_cols off_null
  semidefinite[derived:low_effort_wage_matrix]: swap_steps jac_cols off_null
  semidefinite[omega_eq7]: swap_steps omega_sign lam_scale f_xa jac_cols off_null
  semidefinite[silberberg_S|tangent]: lam_scale jac_cols off_null
  semidefinite[universal_U]: swap_steps lam_scale f_xa jac_cols
analyze principal_agent ift
  coherence[universal_U]: omega_sign jac_cols off_null
  envelope: f_a
  first_order_system: jac_cols
  invariance[effort_1_block_scale]: f_xa jac_cols off_null
  invariance[effort_2_block_scale]: f_xa jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:low_effort_wage_matrix]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze principal_agent twin
  coherence[universal_U]: omega_sign jac_cols off_null
  first_order_system: jac_cols
  invariance[effort_1_block_scale]: newton_tol unscaled_step jac_cols off_null
  invariance[effort_2_block_scale]: jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:low_effort_wage_matrix]: newton_tol jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  semidefinite[silberberg_S|tangent]: jac_cols off_null
  semidefinite[universal_U]: jac_cols
analyze profit_cd fd
  coherence[universal_U]: omega_sign f_xa jac_cols
  envelope: f_a
  first_order_system: f_xx f_xa jac_cols
  invariance[price_scale]: jac_cols
  rank_bound[omega_eq7]: f_xa jac_cols
  semidefinite[derived:input_price_block]: jac_cols
  semidefinite[derived:ratio_responses]:
  semidefinite[omega_eq7]: omega_sign f_xa jac_cols
  semidefinite[silberberg_S|tangent]: f_xa jac_cols
  semidefinite[universal_U]: f_xa jac_cols
analyze profit_cd ift
  coherence[universal_U]: omega_sign jac_cols
  envelope: f_a
  first_order_system: jac_cols
  invariance[price_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[derived:input_price_block]: f_xa jac_cols
  semidefinite[derived:ratio_responses]: f_xa
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze profit_cd twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols
  invariance[price_scale]: jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[derived:input_price_block]: jac_cols
  semidefinite[derived:ratio_responses]: fa_stencil
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze slutsky_hicks fd
  coherence[universal_U]: omega_sign f_xa jac_cols
  envelope: f_a
  first_order_system: lam_scale lam_sign f_xx f_xa jac_cols
  hatta_reduction: omega_sign f_xa
  invariance[price_income_scale]: jac_cols
  rank_bound[omega_eq7]: f_xa jac_cols off_null
  semidefinite[derived:substitution]: jac_cols
  semidefinite[omega_eq7]: omega_sign lam_sign f_xa jac_cols
  semidefinite[silberberg_S|tangent]: lam_sign f_xa jac_cols
  semidefinite[universal_U]: lam_sign f_xa jac_cols
analyze slutsky_hicks ift
  coherence[universal_U]: omega_sign jac_cols
  envelope: f_a
  first_order_system: jac_cols
  hatta_reduction: omega_sign f_xa
  invariance[price_income_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:substitution]: lam_sign f_xa jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
analyze slutsky_hicks twin
  coherence[universal_U]: omega_sign jac_cols
  first_order_system: jac_cols
  hatta_reduction: omega_sign
  invariance[price_income_scale]: jac_cols
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:substitution]: lam_sign jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  semidefinite[silberberg_S|tangent]: jac_cols
  semidefinite[universal_U]: jac_cols
verify-all cost_constrained_profit analytic
  cross_equality: f_xa jac_cols
  expenditure_block_csm: omega_sign f_xa jac_cols
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[input_price_cost_scale]: f_xa jac_cols
  invariance[output_price_scale]: f_xa jac_cols
  multiplier_positive: lam_sign
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:expenditure_substitution]: lam_sign f_xa jac_cols off_null
  semidefinite[derived:output_price_block]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  single_output_price_independence: f_xa
verify-all cost_constrained_profit numeric
  cross_equality: f_xa jac_cols
  expenditure_block_csm: omega_sign f_xa jac_cols
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[input_price_cost_scale]: f_xa jac_cols
  invariance[output_price_scale]: f_xa jac_cols
  multiplier_positive: lam_sign
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:expenditure_substitution]: lam_sign f_xa jac_cols off_null
  semidefinite[derived:output_price_block]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  single_output_price_independence: f_xa
verify-all efficient_portfolio analytic
  closed_form_solution: lam_scale lam_sign
  csm_block_structure: omega_sign f_xa
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[scale_budget]: f_xa jac_cols off_null
  invariance[scale_returns]: f_xa jac_cols off_null
  invariance[scale_variances]: f_xa jac_cols off_null
  null_vectors: f_xa jac_cols off_null
  original_coordinates: f_xa
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:budget_substitution]: f_xa jac_cols off_null
  semidefinite[derived:return_substitution]: f_xa jac_cols off_null
  semidefinite[derived:squared_share_response]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  symmetry_relations: f_xa jac_cols off_null
verify-all efficient_portfolio numeric
  closed_form_solution: lam_scale lam_sign
  csm_block_structure: omega_sign f_xa
  first_order_system: jac_cols off_null
  hatta_reduction: omega_sign f_xa
  invariance[scale_budget]: f_xa jac_cols off_null
  invariance[scale_returns]: f_xa jac_cols off_null
  invariance[scale_variances]: f_xa jac_cols off_null
  null_vectors: f_xa jac_cols off_null
  original_coordinates: f_xa
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:budget_substitution]: f_xa jac_cols off_null
  semidefinite[derived:return_substitution]: f_xa jac_cols off_null
  semidefinite[derived:squared_share_response]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
  symmetry_relations: f_xa jac_cols off_null
verify-all market_power numeric
  competitive_limit: f_xa
  first_order_system: jac_cols off_null
  g_matrix_from_recipe: omega_sign f_xa
  hatta_reduction: omega_sign f_xa
  modified_euler: f_xa jac_cols off_null
  price_coordinate_structure: f_xa jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:price_impact_substitution]: lam_sign f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols
verify-all multi_constraint_utility numeric
  block_rank: f_xa jac_cols off_null
  double_block_structure: omega_sign f_xa jac_cols
  first_order_system: jac_cols off_null
  k1_reduction: newton_tol lam_scale lam_sign f_xx f_xa jac_cols
  multiplier_signs: lam_sign
  offdiag_transpose: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols off_null
  semidefinite[derived:substitution_block_1]: lam_sign f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
verify-all multi_output_profit analytic
  block_matrix_a2: f_xa
  block_symmetry: analytic_jac jac_cols
  first_order_system: analytic_jac f_xx f_xa jac_cols
  invariance[price_scale]: analytic_jac jac_cols
  rank_bound[omega_eq7]: analytic_jac f_xa jac_cols
  semidefinite[derived:io_response_block]: analytic_jac jac_cols
  semidefinite[omega_eq7]: omega_sign analytic_jac f_xa jac_cols
  sharpened_pair: analytic_jac jac_cols
verify-all multi_output_profit numeric
  block_matrix_a2: f_xa
  block_symmetry: f_xa jac_cols
  first_order_system: jac_cols
  invariance[price_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[derived:io_response_block]: f_xa jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  sharpened_pair: f_xa jac_cols
verify-all pareto_allocation numeric
  first_order_system: jac_cols
  rank_bound[omega_eq7]: jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
verify-all principal_agent analytic
  block_identities: lam_scale f_xa jac_cols off_null
  contract_csm_blocks: omega_sign f_xa
  first_order_system: jac_cols
  invariance[effort_1_block_scale]: f_xa jac_cols off_null
  invariance[effort_2_block_scale]: f_xa jac_cols off_null
  low_effort_matrix: f_xa jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  reduced_operator_equality: f_xa jac_cols off_null
  semidefinite[derived:low_effort_wage_matrix]: f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
verify-all principal_agent numeric
  block_identities: newton_tol lam_scale f_xa jac_cols off_null
  contract_csm_blocks: omega_sign f_xa
  first_order_system: jac_cols
  invariance[effort_1_block_scale]: newton_tol f_xa jac_cols off_null
  invariance[effort_2_block_scale]: f_xa jac_cols off_null
  low_effort_matrix: newton_tol f_xa jac_cols off_null
  rank_bound[omega_eq7]: jac_cols off_null
  reduced_operator_equality: newton_tol f_xa jac_cols off_null
  semidefinite[derived:low_effort_wage_matrix]: newton_tol f_xa jac_cols off_null
  semidefinite[omega_eq7]: omega_sign jac_cols off_null
verify-all profit_cd analytic
  closed_form_jacobian: analytic_jac jac_cols
  cross_derivative_identity: analytic_jac jac_cols
  first_order_system: analytic_jac f_xx f_xa jac_cols
  input_price_block_a2: f_xa
  invariance[price_scale]: analytic_jac jac_cols
  rank_bound[omega_eq7]: analytic_jac f_xa jac_cols
  ratio_matrix_family: analytic_jac jac_cols
  scale_rows_csm: omega_sign f_xa
  semidefinite[derived:input_price_block]: analytic_jac jac_cols
  semidefinite[derived:ratio_responses]: analytic_jac
  semidefinite[omega_eq7]: omega_sign analytic_jac f_xa jac_cols
  sharpened_input_bound: analytic_jac jac_cols
  supply_bound: analytic_jac jac_cols
  supply_response_nonneg: f_xa
verify-all profit_cd numeric
  closed_form_jacobian: f_xx f_xa jac_cols
  cross_derivative_identity: f_xa jac_cols
  first_order_system: jac_cols
  input_price_block_a2: f_xa
  invariance[price_scale]: f_xa jac_cols
  rank_bound[omega_eq7]: jac_cols
  ratio_matrix_family: f_xa jac_cols
  scale_rows_csm: omega_sign closed_form f_xa
  semidefinite[derived:input_price_block]: f_xa jac_cols
  semidefinite[derived:ratio_responses]: f_xa
  semidefinite[omega_eq7]: omega_sign jac_cols
  sharpened_input_bound: f_xa jac_cols
  supply_bound: f_xa jac_cols
  supply_response_nonneg: f_xa
verify-all slutsky_hicks analytic
  first_order_system: lam_scale lam_sign analytic_jac f_xx f_xa jac_cols
  hatta_reduction: omega_sign f_xa
  invariance[price_income_scale]: analytic_jac jac_cols
  omega_is_scaled_sigma: omega_sign f_xa
  rank_bound[omega_eq7]: analytic_jac f_xa jac_cols off_null
  reduced_form_equivalent: analytic_jac jac_cols off_null
  semidefinite[derived:substitution]: analytic_jac jac_cols
  semidefinite[omega_eq7]: omega_sign lam_sign analytic_jac f_xa jac_cols
  sigma_closed_form: analytic_jac jac_cols off_null
  sigma_negative_semidefinite: analytic_jac jac_cols
  sigma_price_null: analytic_jac jac_cols off_null
  sigma_symmetric: analytic_jac
verify-all slutsky_hicks numeric
  first_order_system: jac_cols
  hatta_reduction: omega_sign f_xa
  invariance[price_income_scale]: f_xa jac_cols
  omega_is_scaled_sigma: omega_sign f_xa
  rank_bound[omega_eq7]: jac_cols off_null
  reduced_form_equivalent: lam_sign f_xa jac_cols off_null
  semidefinite[derived:substitution]: lam_sign f_xa jac_cols
  semidefinite[omega_eq7]: omega_sign jac_cols
  sigma_closed_form: lam_scale lam_sign f_xx f_xa jac_cols off_null
  sigma_negative_semidefinite: lam_sign f_xa jac_cols
  sigma_price_null: f_xa jac_cols off_null
  sigma_symmetric: f_xa
"""

STOPS = """
analyze cost_constrained_profit fd: closed_form f_a
analyze cost_constrained_profit ift: closed_form f_a
analyze efficient_portfolio fd: closed_form
analyze efficient_portfolio ift: closed_form
analyze market_power twin: fa_stencil
analyze multi_output_profit fd: closed_form
analyze multi_output_profit ift: closed_form
analyze pareto_allocation fd: lam_sign
analyze pareto_allocation ift: lam_sign
analyze pareto_allocation twin: fa_stencil lam_sign
analyze principal_agent fd: lam_sign closed_form
analyze principal_agent ift: lam_sign closed_form
analyze principal_agent twin: lam_sign
analyze profit_cd fd: closed_form
analyze profit_cd ift: closed_form
analyze slutsky_hicks fd: closed_form
analyze slutsky_hicks ift: closed_form
verify-all cost_constrained_profit analytic: closed_form f_a
verify-all cost_constrained_profit numeric: f_a
verify-all efficient_portfolio analytic: closed_form
verify-all multi_output_profit analytic: closed_form
verify-all pareto_allocation numeric: lam_sign
verify-all principal_agent analytic: lam_sign closed_form
verify-all principal_agent numeric: lam_sign
verify-all profit_cd analytic: closed_form f_a
verify-all profit_cd numeric: f_a
verify-all slutsky_hicks analytic: closed_form
"""


if __name__ == "__main__":
    flips, stops, _ = power_table()
    quotes = '"' * 3
    print(f"FLIPS = {quotes}\n{_flips_text(flips)}\n{quotes}\n\n"
          f"STOPS = {quotes}\n{_stops_text(stops)}\n{quotes}")
