import numpy as np
import pytest

from compstat.benchmarks import all_benchmarks, get_benchmark
from compstat.benchmarks.profit import cd_demand_jacobian, cd_profit_model
from compstat.benchmarks.slutsky import demand_model
from compstat.errors import DomainError, EvaluationError, SensitivityError
from compstat.model import ProblemModel, augment_with_scale
from compstat.sensitivity import decision_jacobian_fd, decision_jacobian_ift
from compstat.solver import SolverConfig, newton_solve, solve_interior

from conftest import separable_model, sqrt_profit_model


def test_fd_demand_derivatives_match_hand_formulas():
    # x_i = g_i m / p_i gives dx1/dp1 = -0.5 and dx1/dm = 0.5 at the point
    model = demand_model(np.array([0.5, 0.5]))
    bundle = decision_jacobian_fd(model, np.array([1.0, 1.0, 1.0]))
    assert bundle.method == "fd"
    assert bundle.x_jac[0, 0] == pytest.approx(-0.5, abs=1e-5)
    assert bundle.x_jac[0, 2] == pytest.approx(0.5, abs=1e-5)


def test_scale_parameter_column_is_zero():
    aug = augment_with_scale(cd_profit_model())
    a = np.array([1.0, 1.0, 2.0, 1.0])
    fd = decision_jacobian_fd(aug, a)
    assert np.max(np.abs(fd.x_jac[:, -1])) < 1e-8
    sol = solve_interior(aug, a)
    ift = decision_jacobian_ift(aug, sol)
    assert np.max(np.abs(ift.x_jac[:, -1])) < 1e-10


def test_absent_parameter_column_is_exactly_zero():
    from dataclasses import replace
    base = demand_model(np.array([0.5, 0.5]))
    padded = replace(
        base, name="padded", N=4,
        objective=lambda x, a: base.objective(x, a[:3]),
        constraints=(lambda x, a: base.constraints[0](x, a[:3]),),
        grad_x_objective=None, grad_a_objective=None,
        grad_x_constraints=None, grad_a_constraints=None,
        hess_xx_objective=None, hess_xa_objective=None,
        hess_xx_constraints=None, hess_xa_constraints=None,
        analytic_solution=lambda a: base.analytic_solution(a[:3]),
        parameter_names=("p1", "p2", "m", "unused"),
        invariance_generators=(), separable_kappa=None)
    fd = decision_jacobian_fd(padded, np.array([1.0, 1.0, 1.0, 7.0]))
    assert np.all(fd.x_jac[:, 3] == 0.0)


def test_separable_objective_has_zero_jacobian():
    model, _ = separable_model()
    a = np.array([0.3, 1.2])
    sol = solve_interior(model, a)
    ift = decision_jacobian_ift(model, sol)
    assert np.max(np.abs(ift.x_jac)) < 1e-12
    fd = decision_jacobian_fd(model, a)
    assert np.max(np.abs(fd.x_jac)) < 1e-9


def test_cd_closed_form_jacobian():
    gamma = np.array([1.0 / 3.0, 1.0 / 3.0])
    model = cd_profit_model(gamma)
    a = np.array([1.0, 1.0, 2.0])
    sol = solve_interior(model, a)
    ift = decision_jacobian_ift(model, sol)
    expected = cd_demand_jacobian(gamma)(a)
    assert np.max(np.abs(ift.x_jac - expected)) < 1e-6


@pytest.mark.parametrize("pipeline", ["analytic", "numeric"])
def test_fd_ift_agreement_on_all_benchmarks(pipeline):
    for entry in all_benchmarks():
        if pipeline == "analytic" and not entry.has_analytic:
            continue
        run = entry.prepare(pipeline)
        fd = decision_jacobian_fd(entry.model, entry.default_point, x0=entry.x0)
        assert np.max(np.abs(run.sens.x_jac - fd.x_jac)) < 1e-4, entry.name


def test_constraint_identity_holds_for_both_methods():
    for name in ("slutsky_hicks", "cost_constrained_profit", "principal_agent"):
        entry = get_benchmark(name)
        run = entry.prepare("numeric")
        # d/da g(x(a), a) = Ga + Gx @ x_jac vanishes for every (k, mu)
        Ga, Gx = run.sol.blocks.Ga, run.sol.blocks.Gx
        assert np.max(np.abs(Ga + Gx @ run.sens.x_jac)) < 1e-6
        fd = decision_jacobian_fd(entry.model, entry.default_point, x0=entry.x0)
        assert np.max(np.abs(Ga + Gx @ fd.x_jac)) < 1e-5


def test_stencil_failure_names_parameter():
    # the second parameter sits exactly on its domain edge, so only its own
    # stencil leaves the evaluable region
    from compstat.model import ProblemModel

    def objective(x, a):
        inside = 1e-8 - a[1]
        if inside < 0:
            return float("nan")
        return float(-0.5 * (x[0] - a[0]) ** 2 + np.sqrt(inside) * x[0])

    model = ProblemModel(name="edge", M=1, N=2, objective=objective)
    with pytest.raises(SensitivityError) as excinfo:
        decision_jacobian_fd(model, np.array([0.3, 0.0]), x0=np.array([0.3]))
    assert excinfo.value.parameter_index == 1


@pytest.mark.parametrize("error, typed", [(TypeError, False), (DomainError, True)])
def test_only_typed_stencil_errors_become_sensitivity_errors(error, typed):
    # the callables work at a = 0.5 only: the base solve converges there and
    # the first stencil point raises
    def guarded(fn):
        def call(x, a):
            if a[0] != 0.5:
                raise error("user bug off the base point")
            return fn(x, a)
        return call

    model = ProblemModel(
        name="guarded", M=1, N=1,
        objective=guarded(lambda x, a: float(-(x[0] - a[0]) ** 2)),
        grad_x_objective=guarded(lambda x, a: -2.0 * (x - a[0])),
        hess_xx_objective=lambda x, a: -2.0 * np.eye(1))
    solve = lambda: decision_jacobian_fd(model, np.array([0.5]), x0=np.array([0.5]))
    if typed:
        with pytest.raises(SensitivityError, match="parameter index 0 of 'guarded'") as info:
            solve()
        assert isinstance(info.value.__cause__, DomainError)
    else:
        with pytest.raises(TypeError, match="user bug off the base point"):
            solve()


def test_fd_resolves_with_the_callers_solver_settings(monkeypatch):
    model = sqrt_profit_model()
    config = SolverConfig(tol=1e-9, max_iter=57)
    seen = []

    def spy(model, a, x0, cfg, lam0=None, factor=None):
        seen.append(cfg)
        return newton_solve(model, a, x0, cfg, lam0, factor)

    monkeypatch.setattr("compstat.sensitivity.newton_solve", spy)
    bundle = decision_jacobian_fd(model, np.array([1.0, 2.0]), config, x0=np.array([0.5]))
    # x = (p / 2w)^2: dx/dw = -2 and dx/dp = 1 at (w, p) = (1, 2)
    assert bundle.x_jac == pytest.approx(np.array([[-2.0, 1.0]]), abs=1e-5)
    assert len(seen) == 1 + 2 * model.N and all(
        cfg == SolverConfig(tol=1e-12, max_iter=57) for cfg in seen)


def test_non_finite_bordered_system_raises_a_typed_error():
    # the start point is the optimum, so Newton never reads the Hessian;
    # the implicit-function solve does, and its input check raises
    model = ProblemModel(
        name="nan_hessian", M=2, N=2,
        objective=lambda x, a: -float(np.sum((x - a) ** 2)),
        grad_x_objective=lambda x, a: -2.0 * (x - a),
        hess_xx_objective=lambda x, a: np.full((2, 2), np.nan))
    sol = newton_solve(model, np.ones(2), np.ones(2))
    assert sol.converged and sol.iterations == 0
    with pytest.raises(EvaluationError, match="non-finite"):
        decision_jacobian_ift(model, sol)
