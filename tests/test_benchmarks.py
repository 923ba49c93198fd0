import numpy as np
import pytest

from compstat.benchmarks import all_benchmarks, benchmark_names, get_benchmark
from compstat.benchmarks.base import LinearBudget, constraint_fields
from compstat.benchmarks.multi_output import (io_blocks, sharpened_pair,
                                              singular_output_instance)
from compstat.benchmarks.portfolio import (portfolio_solution,
                                           portfolio_variance,
                                           principal_data, variance_minimum)
from compstat.benchmarks.profit import (elasticity_triple, ratio_transform_rank,
                                        supply_elasticity_pair,
                                        zero_profit_instance)
from compstat.benchmarks.slutsky import substitution_matrix
from compstat.benchmarks.utility import multi_budget_oracle_point
from compstat.errors import ConfigurationError
from compstat.model import Blocks
from compstat.solver import newton_solve, solve_interior


def test_every_entry_is_registered():
    assert set(benchmark_names()) == {
        "slutsky_hicks", "profit_cd", "multi_output_profit",
        "cost_constrained_profit", "multi_constraint_utility", "market_power",
        "principal_agent", "efficient_portfolio", "pareto_allocation"}


def test_analytic_oracles_satisfy_first_order_system():
    for entry in all_benchmarks():
        if not entry.has_analytic:
            continue
        run = entry.prepare("analytic")
        assert run.sol.kkt_residual <= 1e-10, entry.name


@pytest.mark.parametrize("pipeline", ["analytic", "numeric"])
def test_property_suites_pass(pipeline):
    for entry in all_benchmarks():
        if pipeline == "analytic" and not entry.has_analytic:
            continue
        for rep in entry.run_suite(pipeline):
            assert rep.verdict != "fail", (entry.name, rep.name, rep.residual)


def test_slutsky_frozen_values():
    run = get_benchmark("slutsky_hicks").prepare("analytic")
    sigma = substitution_matrix(run)
    assert np.max(np.abs(sigma - np.array([[-0.25, 0.25], [0.25, -0.25]]))) < 1e-12
    # 2x2 eigensolve by hand: trace -0.5, determinant 0
    assert sorted(np.linalg.eigvalsh(sigma)) == pytest.approx([-0.5, 0.0], abs=1e-12)


def test_cd_rejects_nonconcave_exponents():
    from compstat.benchmarks.profit import cd_profit_model
    with pytest.raises(ConfigurationError):
        cd_profit_model(gamma=(0.6, 0.5))


def test_cd_elasticity_triple_closed_form():
    run = get_benchmark("profit_cd").prepare("analytic")
    exact, sharpened, standard = elasticity_triple(run)
    assert exact == pytest.approx(-2.0, abs=1e-10)
    assert sharpened == pytest.approx(-1.5, abs=1e-10)
    assert standard == 0.0


def test_cd_supply_elasticity_attains_bound():
    run = get_benchmark("profit_cd").prepare("analytic")
    sigma, bound = supply_elasticity_pair(run)
    assert sigma == pytest.approx(2.0, abs=1e-10)      # total exponent 2/3
    assert bound == pytest.approx(sigma, abs=1e-10)


def test_multi_output_sharpened_pair_skips_on_singular_output_block():
    model, output_grads, point = singular_output_instance()
    sol = solve_interior(model, point)
    from compstat.benchmarks.base import BenchRun
    from compstat.sensitivity import decision_jacobian_ift
    sens = decision_jacobian_ift(model, sol)
    entry = get_benchmark("multi_output_profit")
    run = BenchRun(entry=entry, model=model, sol=sol, sens=sens,
                   iso=entry.prepare("analytic").iso, pipeline="analytic")
    w_block, m_block, _, p_block = io_blocks(run, output_grads)
    w_star, p_star = sharpened_pair(w_block, m_block, p_block)
    assert w_star is None and p_star is None


def test_zero_profit_rank_drop_is_exactly_one():
    model, x_jac_fn, a_singular, a_regular = zero_profit_instance()
    sol = solve_interior(model, a_singular)
    profit = Blocks(model, sol.x, a_singular).f
    assert profit == pytest.approx(0.0, abs=1e-12)
    rank_singular = ratio_transform_rank(model, x_jac_fn, a_singular)
    rank_regular = ratio_transform_rank(model, x_jac_fn, a_regular)
    assert rank_regular == model.M
    assert rank_singular == rank_regular - 1


def test_multi_budget_designed_oracle():
    entry = get_benchmark("multi_constraint_utility")
    run = entry.prepare("numeric")
    x_star, lam_star = multi_budget_oracle_point()
    assert run.sol.x == pytest.approx(x_star, abs=1e-10)
    assert run.sol.lam == pytest.approx(lam_star, abs=1e-10)


def test_portfolio_diag_instance_closed_forms():
    # hand oracle: sigma = diag(1, 4), weights (1, 1), returns (1, 2),
    # total 1.  Eliminating the constraints gives x = (2 - t, t - 1) and
    # variance (2-t)^2 + 4(t-1)^2, minimized at t = 1.2 with value 0.8.
    sigma2 = np.array([1.0, 4.0])
    weights = np.array([1.0, 1.0])
    returns = np.array([1.0, 2.0])
    best_target, best_value = variance_minimum(sigma2, weights, returns, 1.0)
    assert best_target == pytest.approx(1.2, abs=1e-12)
    assert best_value == pytest.approx(0.8, abs=1e-12)
    # brute-force scan cross-check of the quadratic profile
    grid = np.linspace(0.5, 2.0, 3001)
    values = [portfolio_variance(sigma2, weights, returns, 1.0, t) for t in grid]
    assert grid[int(np.argmin(values))] == pytest.approx(1.2, abs=1e-3)
    assert min(values) == pytest.approx(0.8, abs=1e-6)
    for target in (0.9, 1.2, 1.7):
        x, _ = portfolio_solution(sigma2, weights, returns, 1.0, target)
        assert x == pytest.approx([2.0 - target, target - 1.0], abs=1e-12)
        assert portfolio_variance(sigma2, weights, returns, 1.0, target) == \
            pytest.approx((2 - target) ** 2 + 4 * (target - 1) ** 2, abs=1e-12)


def test_portfolio_newton_matches_closed_form():
    entry = get_benchmark("efficient_portfolio")
    a = entry.default_point
    m_dim = entry.model.M
    x_formula, nu = portfolio_solution(a[:m_dim], a[m_dim:2 * m_dim],
                                       a[2 * m_dim:3 * m_dim],
                                       a[3 * m_dim], a[3 * m_dim + 1])
    sol = newton_solve(entry.model, a, x_formula * 0.8)
    assert np.max(np.abs(sol.x - x_formula)) < 1e-10
    assert np.max(np.abs(-sol.lam - nu)) < 1e-8


def test_portfolio_riskless_mix_excluded():
    variances, vectors, W, R, dropped = principal_data(
        np.diag([2.0, 0.0, 1.0]), np.ones(3), np.array([0.1, 0.02, 0.05]))
    assert dropped == (0,)                   # eigenvalues sorted ascending
    assert variances == pytest.approx([1.0, 2.0])
    assert vectors.shape == (3, 2)
    # a diagonal covariance is its own eigenbasis, with nothing dropped
    variances, vectors, W, R, dropped = principal_data(
        np.diag([1.0, 4.0]), np.ones(2), np.array([1.0, 2.0]))
    assert dropped == ()
    assert variances == pytest.approx([1.0, 4.0], abs=1e-12)
    assert vectors == pytest.approx(np.eye(2), abs=1e-12)
    assert W == pytest.approx([1.0, 1.0], abs=1e-12)
    assert R == pytest.approx([1.0, 2.0], abs=1e-12)


def test_principal_agent_rejects_nonbinding_configuration():
    from compstat.benchmarks.agency import register_principal_agent
    with pytest.raises(ValueError, match="bind"):
        # a cheaper high effort flips the incentive multiplier's sign
        register_principal_agent(c_high=0.2, c_low=0.8)
    with pytest.raises(ValueError, match="dependent"):
        # identical probability rows cannot separate the two requirements
        register_principal_agent(p_high=(0.4, 0.3, 0.3), p_low=(0.4, 0.3, 0.3))


def _agency_gram(a):
    probs = np.vstack([a[:3], a[3:6]])
    return probs @ ((1.0 / probs[0])[:, None] * probs.T)


def test_gram_condition_bound_agrees_with_the_svd():
    # seeded 2 x 2 Gram matrices with condition numbers from 1 to 1e16: the
    # closed form decides as np.linalg.cond does, except within 1e-3 of the
    # bound, where the SVD's own rounding (eps * cond) decides
    from compstat.benchmarks.agency import gram_condition_at_most
    rng = np.random.default_rng(5)
    decided = 0
    for exponent in rng.uniform(0.0, 16.0, 2000):
        turn, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        gram = (turn * [1.0, 10.0 ** -exponent]) @ turn.T * rng.uniform(1e-3, 1e3)
        cond = np.linalg.cond(gram)
        if abs(np.log10(cond) - 12.0) > 1e-3:
            assert gram_condition_at_most(gram, 1e12) == (cond <= 1e12), cond
            decided += 1
    assert decided > 1900
    assert not gram_condition_at_most(np.ones((2, 2)), 1e12)
    assert not gram_condition_at_most(np.array([[np.inf, 1.0], [1.0, 1.0]]), 1e12)
    assert not gram_condition_at_most(np.array([[np.nan, 1.0], [1.0, 1.0]]), 1e12)


@pytest.mark.parametrize("cond_factor", [0.9, 1.1])
def test_contract_oracle_refuses_gram_conditions_above_1e12(cond_factor):
    # the effort-2 probabilities tilted from the effort-1 row until the Gram
    # matrix's np.linalg.cond is cond_factor * 1e12, found by bisection; equal
    # utility levels keep the payments interior
    from compstat.benchmarks.agency import contract_oracle
    from compstat.errors import DomainError
    entry = get_benchmark("principal_agent")
    base = np.asarray(entry.default_point, dtype=float)

    def point(tilt):
        a = base.copy()
        a[3:6] = a[:3] + tilt * np.array([1.0, -2.0, 1.0])
        a[7] = a[6]
        return a

    low, high = 1e-9, 1e-3          # condition numbers above and below the target
    for _ in range(200):
        mid = np.sqrt(low * high)
        if np.linalg.cond(_agency_gram(point(mid))) > cond_factor * 1e12:
            low = mid
        else:
            high = mid
    a = point(high if cond_factor > 1.0 else low)
    cond = np.linalg.cond(_agency_gram(a))
    assert cond == pytest.approx(cond_factor * 1e12, rel=1e-2)
    if cond_factor > 1.0:
        with pytest.raises(DomainError, match="linearly dependent"):
            entry.model.analytic_solution(a)
    else:
        x, lam = entry.model.analytic_solution(a)
        assert np.isfinite(x).all() and np.isfinite(lam).all()


def test_market_power_rows_match_supply_slopes():
    entry = get_benchmark("market_power")
    run = entry.prepare("numeric")
    slopes = np.array([0.10, 0.05, 0.20])
    expected = np.hstack([np.eye(3), (run.sol.x * slopes).reshape(-1, 1)])
    assert run.iso.vectors == pytest.approx(expected, abs=1e-12)


def test_pareto_rows_have_empty_endowment_slots():
    entry = get_benchmark("pareto_allocation")
    run = entry.prepare("numeric")
    assert np.max(np.abs(run.iso.vectors[:, -2:])) == 0.0
    assert run.iso.count == 2               # one direction per taste shift


# one budget alone, and the second budget block of a two-budget layout
BUDGET_LAYOUTS = [LinearBudget(4, slice(0, 3), 3), LinearBudget(9, slice(4, 7), 7)]


@pytest.mark.parametrize("budget", BUDGET_LAYOUTS)
def test_linear_budget_rows_annihilate_its_parameter_gradient(budget):
    rng = np.random.default_rng(3)
    x, a = rng.uniform(0.1, 2.0, 3), rng.uniform(0.5, 2.0, budget.n_dim)
    assert np.all(budget.rows(x) @ budget.grad_a(x, a) == 0.0)


@pytest.mark.parametrize("budget", BUDGET_LAYOUTS)
def test_linear_budget_substitution_is_the_jacobian_times_its_rows(budget):
    rng = np.random.default_rng(4)
    x, x_jac = rng.uniform(0.1, 2.0, 3), rng.normal(size=(3, budget.n_dim))
    expected = x_jac @ budget.rows(x).T
    got = budget.substitution(x_jac, x)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_linear_budget_keeps_the_demand_formulas():
    m_dim = 3
    budget = LinearBudget(m_dim + 1, slice(0, m_dim), m_dim)
    x, a = np.array([0.3, 1.7, 0.9]), np.array([1.1, 0.4, 2.3, 1.9])
    assert budget.value(x, a) == float(a[m_dim] - a[:m_dim] @ x)
    assert np.array_equal(budget.grad_x(x, a), -a[:m_dim])
    assert np.array_equal(budget.grad_a(x, a), np.append(-x, 1.0))
    assert np.array_equal(budget.hess_xx(x, a), np.zeros((m_dim, m_dim)))
    assert np.array_equal(budget.hess_xa(x, a),
                          np.hstack([-np.eye(m_dim), np.zeros((m_dim, 1))]))
    assert np.array_equal(budget.rows(x), np.hstack([np.eye(m_dim), x.reshape(-1, 1)]))


def test_constraint_fields_keep_the_constraint_order():
    first, second = BUDGET_LAYOUTS[1], LinearBudget(9, slice(0, 3), 3)
    custom = tuple(lambda x, a, i=i: i for i in range(5))
    fields = constraint_fields([first, custom, second])
    assert fields["constraints"] == (first.value, custom[0], second.value)
    assert fields["grad_x_constraints"] == (first.grad_x, custom[1], second.grad_x)
    assert fields["grad_a_constraints"] == (first.grad_a, custom[2], second.grad_a)
    assert fields["hess_xx_constraints"] == (first.hess_xx, custom[3], second.hess_xx)
    assert fields["hess_xa_constraints"] == (first.hess_xa, custom[4], second.hess_xa)
