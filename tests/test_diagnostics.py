import dataclasses

import numpy as np
import pytest

from compstat import csm, diagnostics
from compstat.benchmarks import get_benchmark
from compstat.benchmarks.profit import augmented_run
from compstat.diagnostics import (check_envelope, check_hatta_reduction,
                                  check_invariance, check_rank_bound,
                                  check_semidefinite)
from compstat.geometry import build_isovectors
from compstat.model import Blocks
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import SolverConfig, newton_solve, solve_interior

from conftest import generic_quadratic_instance, separable_model


def test_envelope_demand_value_function_is_compensation_invariant():
    # indirect utility v(p, m) = sum g_i log(g_i m / p_i) differentiated by
    # hand: dv/dp_a = -g_a/p_a and dv/dm = 1/m, so the compensated
    # combination dv/dp_a + x_a dv/dm vanishes identically
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic")
    rep = check_envelope(entry.model, run.sol, run.iso, run.sens, tol=1e-6)
    assert rep.passed
    assert np.max(np.abs(rep.details["value_directional"])) < 1e-6
    # the objective carries no parameters, so the frozen-decision directional
    # derivative vanishes too
    assert np.max(np.abs(rep.details["objective_directional"])) < 1e-12


def test_envelope_profit_with_objective_compensated_rows():
    entry = get_benchmark("profit_cd")
    run = entry.prepare("analytic")
    aug, sol, sens, iso = augmented_run(run)
    rep = check_envelope(aug, sol, iso, sens, tol=1e-6)
    assert rep.passed
    assert rep.details["annihilates_objective"]
    assert np.max(np.abs(rep.details["value_directional"])) < 1e-6


def test_envelope_standard_basis_reduces_to_plain_identity():
    entry = get_benchmark("profit_cd")
    run = entry.prepare("analytic")
    iso = build_isovectors(np.zeros((0, run.model.N)))
    rep = check_envelope(entry.model, run.sol, iso, run.sens, tol=1e-5)
    assert rep.passed
    # plain envelope: dV/da equals the frozen-decision gradient (-x, F)
    expected = Blocks(entry.model, run.sol.x, run.sol.a).fa
    assert rep.details["value_directional"] == pytest.approx(expected, abs=1e-6)


def test_envelope_skips_on_stencil_failure():
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("numeric")
    from dataclasses import replace
    crippled = replace(entry.model, analytic_solution=None)
    rep = check_envelope(crippled, run.sol, run.iso, run.sens,
                         solver_config=SolverConfig(max_iter=0))
    assert rep.verdict == "skipped"
    assert "reason" in rep.details


@pytest.mark.parametrize("name, most_iterations", [
    ("multi_constraint_utility", 1), ("pareto_allocation", 1), ("market_power", 0)])
def test_envelope_resolves_start_at_the_tangent_prediction(name, most_iterations,
                                                           monkeypatch):
    # started at x, each re-solve took 2, 2 and 1 Newton iterations
    entry = get_benchmark(name)
    run = entry.prepare("analytic")
    iterations = []

    def spy(model, a, x0, cfg):
        point = newton_solve(model, a, x0, cfg)
        iterations.append(point.iterations)
        return point

    monkeypatch.setattr("compstat.diagnostics.newton_solve", spy)
    rep = check_envelope(entry.model, run.sol, run.iso, run.sens)
    assert rep.passed
    assert len(iterations) == 2 * run.iso.count
    assert max(iterations) <= most_iterations


def test_invariance_checks_on_three_models():
    for name in ("slutsky_hicks", "profit_cd", "cost_constrained_profit"):
        entry = get_benchmark(name)
        run = entry.prepare("analytic")
        for gen in entry.model.invariance_generators:
            rep = check_invariance(entry.model, gen, run.sol, run.sens, tol=1e-5)
            assert rep.passed, (name, gen.name)


def test_semidefinite_check_demand_rank_and_null_vector():
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic")
    from compstat.benchmarks.slutsky import substitution_matrix
    sigma = substitution_matrix(run)
    rep = check_semidefinite(sigma, "negative", tol=1e-8)
    assert rep.passed
    wrapped = csm.from_matrix(sigma, "substitution", "negative_semidefinite_expected")
    rank_rep = check_rank_bound(wrapped, entry.model.M, entry.model.K)
    assert rank_rep.passed and rank_rep.details["rank"] <= entry.model.M - 1
    p = run.sol.a[:2]
    assert np.max(np.abs(sigma @ p)) < 1e-8


def test_semidefinite_check_flags_violations_and_asymmetry():
    bad = np.array([[1.0, 0.0], [0.0, -0.5]])
    assert check_semidefinite(bad, "positive").verdict == "fail"
    assert check_semidefinite(bad, "negative").verdict == "fail"
    lopsided = np.array([[1.0, 0.5], [0.0, 1.0]])
    rep = check_semidefinite(lopsided, "positive", symmetry_tol=1e-8)
    assert rep.verdict == "fail" and rep.claim == "symmetry-prerequisite"


def test_two_constraint_block_rank_bound():
    entry = get_benchmark("multi_constraint_utility")
    run = entry.prepare("numeric")
    omega = csm.build_omega(entry.model, run.sol, run.sens, run.iso)
    rep = check_rank_bound(omega, entry.model.M, entry.model.K)
    assert rep.passed
    assert rep.details["rank"] <= entry.model.M - 2


def test_universal_rank_equality_on_generic_instance():
    model, a_point = generic_quadratic_instance()
    sol = solve_interior(model, a_point)
    sens = decision_jacobian_ift(model, sol)
    u_res = csm.build_universal(model, sol, sens)
    rep = check_rank_bound(u_res, model.M, model.K, A=model.N)
    assert rep.passed
    assert rep.details["rank"] == min(model.M - model.K, model.N)


def test_hatta_reduction_demand_and_market_power():
    for name in ("slutsky_hicks", "market_power"):
        entry = get_benchmark(name)
        run = entry.prepare("numeric")
        rep = check_hatta_reduction(entry.model, run.sol, run.sens)
        assert rep.passed, name


def test_hatta_rows_coincide_with_compensation_rows_for_linear_budget():
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic")
    rep = check_hatta_reduction(entry.model, run.sol, run.sens)
    rows = np.asarray(rep.details["rows"])
    expected = np.hstack([np.eye(2), run.sol.x.reshape(-1, 1)])
    assert rows == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("basis", ["prescribed", "nullspace"])
def test_hatta_compares_against_main_recipe_built_on_its_own_rows(basis, monkeypatch):
    # the demand rows are the prescribed directions themselves, so their
    # main recipe is reused; null-space directions differ and it is built again
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic", basis=basis)
    omega = csm.build_omega(entry.model, run.sol, run.sens, run.iso)
    rebuilt = check_hatta_reduction(entry.model, run.sol, run.sens)
    builds = []
    monkeypatch.setattr(diagnostics, "build_omega",
                        lambda *args: builds.append(args) or csm.build_omega(*args))
    rep = check_hatta_reduction(entry.model, run.sol, run.sens, run.iso, omega)
    assert len(builds) == (basis == "nullspace")
    assert rep.passed and rep.residual == rebuilt.residual
    assert np.array_equal(rep.details["rows"], rebuilt.details["rows"])


def test_hatta_reduction_portfolio_matches_block_recipe():
    entry = get_benchmark("efficient_portfolio")
    run = entry.prepare("analytic")
    rep = check_hatta_reduction(entry.model, run.sol, run.sens)
    assert rep.passed
    # the separable rows are exactly the catalog compensation rows, so the
    # reduction reproduces the uncorrelated block matrix entry for entry
    rows = np.asarray(rep.details["rows"])
    order = np.max(np.abs(rows - run.iso.vectors))
    assert order < 1e-12


def test_hatta_reduction_skips_without_declared_structure():
    model, _ = separable_model()
    sol = solve_interior(model, np.array([0.1, 0.2]))
    sens = decision_jacobian_ift(model, sol)
    rep = check_hatta_reduction(model, sol, sens)
    assert rep.verdict == "skipped"


def test_checks_are_deterministic():
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic")
    first = check_envelope(entry.model, run.sol, run.iso, run.sens)
    second = check_envelope(entry.model, run.sol, run.iso, run.sens)
    assert first.verdict == second.verdict
    assert first.residual == second.residual


def test_envelope_resolves_with_the_callers_solver_settings(monkeypatch):
    model, a = generic_quadratic_instance()
    model = dataclasses.replace(model, analytic_solution=None)  # re-solve by Newton
    config = SolverConfig(tol=1e-9, max_iter=57)
    sol = solve_interior(model, a, x0=np.zeros(model.M), config=config)
    seen = []

    def spy(model, a, x0, cfg):
        seen.append(cfg)
        return newton_solve(model, a, x0, cfg)

    monkeypatch.setattr("compstat.diagnostics.newton_solve", spy)
    iso = build_isovectors(Blocks(model, sol.x, sol.a).Ga)
    rep = check_envelope(model, sol, iso, decision_jacobian_ift(model, sol),
                         solver_config=config)
    assert rep.passed
    assert seen and all(cfg == SolverConfig(tol=1e-12, max_iter=57) for cfg in seen)
