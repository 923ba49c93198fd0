import dataclasses

import numpy as np
import pytest
import scipy.linalg

from compstat.benchmarks import all_benchmarks
from compstat.benchmarks.slutsky import demand_model
from compstat.errors import (DomainError, EvaluationError, NonConvergenceError,
                             RankDeficiencyError)
from compstat.model import Blocks, ProblemModel
from compstat.solver import (SolverConfig, _symmetric_step, newton_solve,
                             projected_hessian_extremes, recover_multipliers,
                             solve_interior)

from conftest import sqrt_profit_model


def test_log_utility_solution():
    # hand solution of the first-order conditions: x_i = g_i m / p_i, lam = 1/m
    model = demand_model(np.array([0.5, 0.5]))
    sol = newton_solve(model, np.array([1.0, 1.0, 1.0]), np.array([0.3, 0.8]))
    assert sol.converged
    assert sol.x == pytest.approx([0.5, 0.5], abs=1e-10)
    assert sol.lam == pytest.approx([1.0], abs=1e-10)


def test_sqrt_profit_solution():
    # p / (2 sqrt(x)) = w solved by hand: x = (p / 2w)^2 = 1 at p=2, w=1
    model = sqrt_profit_model()
    sol = newton_solve(model, np.array([1.0, 2.0]), np.array([0.5]))
    assert sol.converged
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    assert sol.kkt_residual <= 1e-10


def test_analytic_solution_is_authoritative_with_newton_cross_check():
    model = demand_model(np.array([0.5, 0.5]))
    sol = solve_interior(model, np.array([1.0, 2.0, 3.0]))
    assert sol.source == "analytic"
    assert sol.newton_discrepancy is not None
    assert sol.newton_discrepancy < 1e-9


def test_recover_multipliers_unconstrained_residual_is_gradient_norm():
    model = sqrt_profit_model()
    lam, residual = recover_multipliers(model, np.array([4.0]), np.array([1.0, 2.0]))
    assert lam.size == 0
    grad = Blocks(model, np.array([4.0]), np.array([1.0, 2.0])).fx
    assert residual == pytest.approx(float(np.linalg.norm(grad)), rel=1e-9)
    # at the optimum the residual vanishes
    _, at_optimum = recover_multipliers(model, np.array([1.0]), np.array([1.0, 2.0]))
    assert at_optimum < 1e-9


@pytest.mark.parametrize("field, block", [
    ("grad_x_constraints", lambda x, a: np.array([np.inf, 1.0])),
    ("hess_xx_objective", lambda x, a: np.full((2, 2), np.nan)),
])
def test_non_finite_blocks_raise_a_typed_error_before_lapack(field, block):
    # neither np.linalg.svd and lstsq nor the input check of
    # scipy.linalg.solve may see a non-finite block
    model = demand_model(np.array([0.5, 0.5]))
    value = (block,) if field.endswith("constraints") else block
    broken = dataclasses.replace(model, **{field: value})
    with pytest.raises(EvaluationError, match="non-finite"):
        newton_solve(broken, np.array([1.0, 1.0, 1.0]), np.array([0.3, 0.8]))


def test_recover_multipliers_log_utility():
    model = demand_model(np.array([0.5, 0.5]))
    lam, residual = recover_multipliers(model, np.array([0.5, 0.5]),
                                        np.array([1.0, 1.0, 1.0]))
    assert lam == pytest.approx([1.0], abs=1e-12)
    assert residual < 1e-12


def test_recover_multipliers_rank_deficient_gradients():
    # two copies of one constraint: the gradient stack loses rank
    dup = ProblemModel(
        name="dup", M=3, N=3,
        objective=lambda x, a: float(-x @ x),
        constraints=(lambda x, a: float(x[0] + x[1] + x[2] - a[0]),) * 2,
    )
    with pytest.raises(RankDeficiencyError):
        recover_multipliers(dup, np.array([0.5, 0.5, 0.5]), np.ones(3))


def test_constraint_count_must_stay_below_dimensions():
    from compstat.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        ProblemModel(name="overconstrained", M=2, N=3,
                     objective=lambda x, a: 0.0,
                     constraints=(lambda x, a: 0.0,) * 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_newton_system_raises():
    flat = ProblemModel(name="affine", M=1, N=1,
                        objective=lambda x, a: float(a[0] * x[0]))
    with pytest.raises(RankDeficiencyError):
        newton_solve(flat, np.array([1.0]), np.array([0.0]))


def test_iteration_cap_returns_flagged_result():
    model = demand_model(np.array([0.5, 0.5]))
    sol = newton_solve(model, np.array([1.0, 1.0, 1.0]), np.array([0.05, 0.9]),
                       SolverConfig(max_iter=1))
    assert not sol.converged
    assert sol.iterations == 1


@pytest.mark.parametrize("error, propagates", [(DomainError, False), (TypeError, True)])
def test_only_typed_trial_point_errors_are_backtracked(error, propagates):
    # the full step from (1, 0.5) lands on the maximum (2, 0.5), where the
    # callables raise: a typed error halves the step to x1 = 1.5 and stalls
    # there unconverged, any other error reaches the caller
    def guarded(fn):
        def call(x, a):
            if x[0] > 1.5:
                raise error("outside the callable's range")
            return fn(x, a)
        return call

    model = ProblemModel(
        name="guarded", M=2, N=1,
        objective=guarded(lambda x, a: float(-(x[0] - 2.0) ** 2 - (x[1] - a[0]) ** 2)),
        grad_x_objective=guarded(lambda x, a: -2.0 * (x - np.array([2.0, a[0]]))),
        hess_xx_objective=lambda x, a: -2.0 * np.eye(2))
    solve = lambda: newton_solve(model, np.array([0.5]), np.array([1.0, 0.5]))
    if propagates:
        with pytest.raises(error, match="outside the callable's range"):
            solve()
    else:
        sol = solve()
        assert (sol.converged, sol.iterations) == (False, 1)
        assert sol.x == pytest.approx([1.5, 0.5])


def test_solve_interior_requires_start_without_analytic():
    model = sqrt_profit_model()
    with pytest.raises(NonConvergenceError):
        solve_interior(model, np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", ["slutsky_hicks", "profit_cd",
                                  "multi_output_profit",
                                  "cost_constrained_profit",
                                  "principal_agent", "efficient_portfolio"])
def test_newton_matches_analytic_from_perturbed_start(name):
    from compstat.benchmarks import get_benchmark
    entry = get_benchmark(name)
    a = entry.default_point
    x_star, _ = entry.model.analytic_solution(a)
    rng = np.random.default_rng(5)
    x0 = np.asarray(x_star) * (1.0 + rng.uniform(-0.2, 0.2, size=entry.model.M))
    sol = newton_solve(entry.model, a, x0)
    assert sol.converged
    assert np.max(np.abs(sol.x - x_star)) < 1e-8


def test_second_order_necessary_condition_on_benchmarks():
    for entry in all_benchmarks():
        run = entry.prepare("numeric")
        _, max_eig = projected_hessian_extremes(entry.model, run.sol)
        scale = max(1.0, abs(max_eig))
        assert max_eig <= 1e-8 * scale, entry.name


def test_stencil_config_tightens_tol_and_keeps_every_other_field():
    config = SolverConfig(tol=1e-8, max_iter=7)
    assert config.stencil() == SolverConfig(
        tol=1e-12, max_iter=7, cross_check_newton=False)
    assert SolverConfig(tol=1e-14).stencil().tol == 1e-14


def _indefinite(n, rng):
    """A dense, exactly symmetric matrix with eigenvalues of both signs."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.5, 2.0, size=n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    mat = q @ np.diag(eig) @ q.T
    return np.triu(mat) + np.triu(mat, 1).T


@pytest.mark.parametrize("n", list(range(2, 13)) + [63, 64, 65, 81])
def test_symmetric_step_equals_scipy_solve_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        mat, rhs = _indefinite(n, rng), rng.standard_normal(n)
        step = _symmetric_step(mat, rhs)
        assert step is not None
        assert np.array_equal(step, scipy.linalg.solve(mat, rhs))


def _ill_conditioned():
    """Symmetric indefinite 2 x 2 with reciprocal condition about 1e-17."""
    q = np.array([[0.6, 0.8], [-0.8, 0.6]])
    mat = q @ np.diag([1.0, -1e-17]) @ q.T
    return np.triu(mat) + np.triu(mat, 1).T


@pytest.mark.parametrize("kind, mat", [
    ("not symmetric", np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [0.5, 3.0, 0.0]])),
    ("positive definite", np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 2.0]])),
    ("tridiagonal", np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 0.0]])),
    ("singular", np.array([[1.0, 2.0], [2.0, 4.0]])),
    ("rcond below eps", _ill_conditioned()),
])
def test_symmetric_step_leaves_other_matrices_to_scipy(kind, mat):
    assert _symmetric_step(mat, np.ones(mat.shape[0])) is None


def test_ill_conditioned_newton_step_still_warns():
    hess = _ill_conditioned()
    model = ProblemModel(name="ill", M=2, N=2,
                         objective=lambda x, a: float(a @ x - 0.5 * x @ hess @ x),
                         grad_x_objective=lambda x, a: a - hess @ x,
                         hess_xx_objective=lambda x, a: -hess)
    with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
        newton_solve(model, np.array([1.0, 2.0]), np.zeros(2), SolverConfig(max_iter=1))
