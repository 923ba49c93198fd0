"""Acceptance gate: one test per exit criterion, each printing a
pass/fail line with its measured residuals.  Tolerances are pinned here and
nowhere else."""

import numpy as np

from compstat import csm
from compstat.benchmarks import all_benchmarks, get_benchmark
from compstat.benchmarks.agency import (cost_sign_multipliers,
                                         low_effort_wage_matrix, phi_blocks)
from compstat.benchmarks.portfolio import (portfolio_solution,
                                           portfolio_variance,
                                           variance_minimum)
from compstat.benchmarks.profit import (augmented_run, elasticity_triple,
                                        ratio_transform_rank,
                                        supply_elasticity_pair,
                                        zero_profit_instance)
from compstat.benchmarks.slutsky import substitution_matrix
from compstat.diagnostics import check_envelope, check_invariance
from compstat.geometry import build_isovectors, gcd_apply, verify_conformance
from compstat.model import Blocks
from compstat.sensitivity import decision_jacobian_fd, decision_jacobian_ift
from compstat.solver import newton_solve, solve_interior

from conftest import generic_quadratic_instance

CONSTRAINED = ("slutsky_hicks", "cost_constrained_profit",
               "multi_constraint_utility", "market_power", "principal_agent",
               "efficient_portfolio", "pareto_allocation")


def _record(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {description} {detail}")
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_sharpened_elasticity_triple():
    entry = get_benchmark("profit_cd")
    worst = {}
    for pipeline, tol in (("analytic", 1e-6), ("numeric", 1e-4)):
        run = entry.prepare(pipeline)
        exact, sharpened, standard = elasticity_triple(run)
        worst[pipeline] = max(abs(exact - (-2.0)), abs(sharpened - (-1.5)),
                              abs(standard - 0.0))
        assert worst[pipeline] < tol, (pipeline, exact, sharpened, standard)
    _record(1, "own-price elasticity triple (-2, -3/2, 0)", True,
            f"analytic={worst['analytic']:.2e} numeric={worst['numeric']:.2e}")


def test_criterion_02_supply_elasticity_equality():
    run = get_benchmark("profit_cd").prepare("analytic")
    sigma, bound = supply_elasticity_pair(run)
    err = max(abs(sigma - 2.0), abs(bound - 2.0))
    _record(2, "supply elasticity equals its bound at total exponent 2/3",
            err < 1e-6, f"sigma={sigma:.9f} bound={bound:.9f}")


def test_criterion_03_demand_substitution_suite():
    run = get_benchmark("slutsky_hicks").prepare("analytic")
    sigma = substitution_matrix(run)
    frozen = np.array([[-0.25, 0.25], [0.25, -0.25]])
    ok = (np.max(np.abs(sigma - frozen)) < 1e-6
          and np.max(np.abs(sigma - sigma.T)) < 1e-8
          and np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).max() <= 1e-8
          and np.max(np.abs(sigma @ run.sol.a[:2])) < 1e-8
          and csm.estimate_rank(sigma) == 1)
    _record(3, "substitution matrix values, symmetry, sign, null vector, rank", ok)


def test_criterion_04_recipe_coherence_all_benchmarks():
    worst = 0.0
    for entry in all_benchmarks():
        run = entry.prepare("analytic" if entry.has_analytic else "numeric")
        omega = csm.build_omega(run.model, run.sol, run.sens, run.iso).matrix
        scale = max(np.max(np.abs(omega)), 1e-12)
        quad = csm.build_omega_quadratic(run.model, run.sol, run.sens, run.iso).matrix
        s_mat = csm.build_silberberg(run.model, run.sol, run.sens)
        u_mat = csm.build_universal(run.model, run.sol, run.sens)
        t_rows = run.iso.vectors
        for other in (quad, t_rows @ s_mat.matrix @ t_rows.T,
                      t_rows @ u_mat.matrix @ t_rows.T):
            rel = np.max(np.abs(other - omega)) / scale
            worst = max(worst, rel)
            assert rel < 1e-6, entry.name
    _record(4, "main/quadratic/parameter-space/universal recipes agree",
            True, f"worst rel dev {worst:.2e}")


def test_criterion_05_conformance_on_constrained_benchmarks():
    worst = 0.0
    for name in CONSTRAINED:
        entry = get_benchmark(name)
        run = entry.prepare("numeric")
        x_semi = gcd_apply(run.iso, run.sens.x_jac)
        table, _ = verify_conformance(
            x_semi, Blocks(entry.model, run.sol.x, run.sol.a).Gx)
        res = float(np.max(np.abs(table)))
        worst = max(worst, res)
        assert res < 1e-6, name
    _record(5, "compensated decision responses conform to all constraints",
            True, f"worst residual {worst:.2e}")


def test_criterion_06_rank_bounds():
    for entry in all_benchmarks():
        run = entry.prepare("analytic" if entry.has_analytic else "numeric")
        model = entry.model
        omega = csm.build_omega(model, run.sol, run.sens, run.iso)
        assert omega.rank_estimate <= min(model.M - model.K, run.iso.count), entry.name
        u_res = csm.build_universal(model, run.sol, run.sens)
        assert u_res.rank_estimate <= min(model.M - model.K, model.N), entry.name
    model, a_point = generic_quadratic_instance()
    sol = solve_interior(model, a_point)
    sens = decision_jacobian_ift(model, sol)
    u_rank = csm.build_universal(model, sol, sens).rank_estimate
    equality = u_rank == min(model.M - model.K, model.N) == 3
    _record(6, "rank bounds hold everywhere; equality on the generic instance",
            equality, f"generic rank {u_rank}")


def test_criterion_07_envelope_and_invariance():
    worst = 0.0
    # demand model: constraint-compensated directions
    demand = get_benchmark("slutsky_hicks").prepare("analytic")
    rep = check_envelope(demand.model, demand.sol, demand.iso, demand.sens, tol=1e-5)
    worst = max(worst, rep.residual)
    assert rep.passed
    rep = check_invariance(demand.model, demand.model.invariance_generators[0],
                           demand.sol, demand.sens, tol=1e-5)
    worst = max(worst, rep.residual)
    assert rep.passed
    # profit model: objective-compensated directions on the augmented form
    profit = get_benchmark("profit_cd").prepare("analytic")
    aug, sol, sens, iso = augmented_run(profit)
    rep = check_envelope(aug, sol, iso, sens, tol=1e-5)
    worst = max(worst, rep.residual)
    assert rep.passed and np.max(np.abs(rep.details["value_directional"])) < 1e-5
    rep = check_invariance(profit.model, profit.model.invariance_generators[0],
                           profit.sol, profit.sens, tol=1e-5)
    worst = max(worst, rep.residual)
    assert rep.passed
    # cost-constrained model, including single-output price neutrality
    cost = get_benchmark("cost_constrained_profit").prepare("analytic")
    rep = check_envelope(cost.model, cost.sol, cost.iso, cost.sens, tol=1e-5)
    worst = max(worst, rep.residual)
    assert rep.passed
    for gen in cost.model.invariance_generators:
        rep = check_invariance(cost.model, gen, cost.sol, cost.sens, tol=1e-5)
        worst = max(worst, rep.residual)
        assert rep.passed
    from compstat.benchmarks.multi_output import cost_constrained_model
    g1_model, _ = cost_constrained_model(
        [np.array([2.0, 1.0, 1.0])],
        [np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.2]])],
        name="cost_constrained_g1_acceptance")
    a_g1 = np.array([0.5, 0.4, 0.6, 1.0, 1.0, 1.0])
    sol_g1 = solve_interior(g1_model, a_g1)
    sens_g1 = decision_jacobian_ift(g1_model, sol_g1)
    price_col = float(np.max(np.abs(sens_g1.x_jac[:, 3])))
    worst = max(worst, price_col)
    assert price_col < 1e-5
    _record(7, "envelope and invariance identities at finite-difference scale",
            True, f"worst residual {worst:.2e}")


def test_criterion_08_portfolio_closed_forms():
    entry = get_benchmark("efficient_portfolio")
    a = entry.default_point
    m_dim = entry.model.M
    x_formula, nu = portfolio_solution(a[:m_dim], a[m_dim:2 * m_dim],
                                       a[2 * m_dim:3 * m_dim],
                                       a[3 * m_dim], a[3 * m_dim + 1])
    sol = newton_solve(entry.model, a, x_formula * 0.8)
    kkt_err = float(np.max(np.abs(sol.x - x_formula)))
    assert kkt_err < 1e-8
    variance_err = abs(float(a[:m_dim] @ sol.x**2)
                       - portfolio_variance(a[:m_dim], a[m_dim:2 * m_dim],
                                            a[2 * m_dim:3 * m_dim],
                                            a[3 * m_dim], a[3 * m_dim + 1]))
    assert variance_err < 1e-10
    # derived-oracle instance: variances (1, 4), unit weights, returns (1, 2)
    sigma2 = np.array([1.0, 4.0])
    ones = np.array([1.0, 1.0])
    rets = np.array([1.0, 2.0])
    best_target, best_value = variance_minimum(sigma2, ones, rets, 1.0)
    grid = np.linspace(0.5, 2.0, 20001)
    brute = [portfolio_variance(sigma2, ones, rets, 1.0, t) for t in grid]
    ok = (abs(best_target - 1.2) < 1e-10 and abs(best_value - 0.8) < 1e-10
          and abs(grid[int(np.argmin(brute))] - 1.2) < 1e-4
          and abs(min(brute) - 0.8) < 1e-8)
    assert ok
    # block structure: diagonal blocks semidefinite with rank <= M - 2
    run = entry.prepare("analytic")
    omega = csm.build_omega(entry.model, run.sol, run.sens, run.iso)
    blocks = -omega.matrix
    for b in range(3):
        blk = blocks[b * m_dim:(b + 1) * m_dim, b * m_dim:(b + 1) * m_dim]
        eig = np.linalg.eigvalsh(0.5 * (blk + blk.T))
        assert eig.max() <= 1e-8 * max(1.0, abs(eig.min()))
        assert csm.estimate_rank(blk) <= m_dim - 2
    _record(8, "portfolio closed forms, derived minimum, block structure",
            True, f"solution dev {kkt_err:.2e}")


def test_criterion_09_principal_agent_structure():
    entry = get_benchmark("principal_agent")
    run = entry.prepare("numeric")
    m_dim = entry.model.M
    h_mat = low_effort_wage_matrix(run)
    eig = np.linalg.eigvalsh(0.5 * (h_mat + h_mat.T))
    assert eig.max() <= 1e-6 * max(1.0, abs(eig.min()))
    assert csm.estimate_rank(h_mat) <= m_dim - 2
    blocks = phi_blocks(run)
    ratio = np.diag(-run.sol.a[:m_dim] / run.sol.a[m_dim:2 * m_dim])
    dev = max(
        float(np.max(np.abs(blocks[(1, 1)] - ratio @ blocks[(0, 0)] @ ratio))),
        float(np.max(np.abs(blocks[(0, 1)] - blocks[(0, 0)] @ ratio))))
    assert dev < 1e-5
    lam = cost_sign_multipliers(run)
    assert lam[0] >= 0.0 >= lam[1]
    _record(9, "contract matrix sign, rank bound, block identities, multiplier signs",
            True, f"block dev {dev:.2e}")


def test_criterion_10_rank_drop_at_zero_profit():
    model, x_jac_fn, a_singular, a_regular = zero_profit_instance()
    sol = solve_interior(model, a_singular)
    assert abs(Blocks(model, sol.x, a_singular).f) < 1e-12
    rank_singular = ratio_transform_rank(model, x_jac_fn, a_singular)
    rank_regular = ratio_transform_rank(model, x_jac_fn, a_regular)
    _record(10, "ratio-variable matrix loses exactly one rank at zero profit",
            rank_singular == rank_regular - 1,
            f"regular {rank_regular} singular {rank_singular}")


def test_criterion_11_method_cross_checks():
    worst = 0.0
    for entry in all_benchmarks():
        run = entry.prepare("numeric")
        fd = decision_jacobian_fd(entry.model, entry.default_point, x0=entry.x0)
        dev = float(np.max(np.abs(run.sens.x_jac - fd.x_jac)))
        worst = max(worst, dev)
        assert dev < 1e-4, entry.name
    profit = get_benchmark("profit_cd").prepare("analytic")
    iso = build_isovectors(np.zeros((0, profit.model.N)))
    quad = csm.build_omega_quadratic(profit.model, profit.sol, profit.sens, iso)
    rel = csm.spectral_relation(
        quad, Blocks(profit.model, profit.sol.x, profit.sol.a).fxx,
        profit.sens, iso)
    spectral = float(np.max(rel.reconstruction_residuals))
    assert spectral < 1e-6
    _record(11, "finite-difference vs implicit-function and spectral mixture",
            True, f"jacobian dev {worst:.2e} spectral {spectral:.2e}")
