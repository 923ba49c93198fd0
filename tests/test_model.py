import numpy as np
import pytest

from compstat.benchmarks.profit import cd_profit_model
from compstat.benchmarks.slutsky import demand_model
from compstat.errors import ConfigurationError, EvaluationError
from compstat.model import (Blocks, InvarianceGenerator, ProblemModel,
                            augment_with_scale, evaluate_lagrangian,
                            numeric_gradient, verify_generator)
from compstat.sensitivity import decision_jacobian_fd
from compstat.solver import solve_interior

from conftest import sqrt_profit_model


def test_lagrangian_without_constraints_is_objective():
    model = sqrt_profit_model()
    value = evaluate_lagrangian(model, np.array([4.0]), np.array([0.5, 1.0]), np.zeros(0))
    assert value == pytest.approx(1.0 * np.sqrt(4.0) - 0.5 * 4.0)


def test_lagrangian_log_utility_point():
    # 0.5 log 0.5 + 0.5 log 0.5 + 1 * (1 - 1) = -log 2
    model = demand_model(np.array([0.5, 0.5]))
    value = evaluate_lagrangian(model, np.array([0.5, 0.5]),
                                np.array([1.0, 1.0, 1.0]), np.array([1.0]))
    assert value == pytest.approx(-np.log(2.0), abs=1e-12)


def test_lagrangian_sqrt_profit_point():
    # 2 * sqrt(1) - 1 * 1 = 1
    model = sqrt_profit_model()
    value = evaluate_lagrangian(model, np.array([1.0]), np.array([1.0, 2.0]), np.zeros(0))
    assert value == pytest.approx(1.0)


def test_lagrangian_rejects_bad_multiplier_count():
    model = demand_model(np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        evaluate_lagrangian(model, np.array([0.5, 0.5]),
                            np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0]))


def test_dimension_mismatch_is_configuration_error():
    model = demand_model(np.array([0.5, 0.5]))
    with pytest.raises(ConfigurationError):
        Blocks(model, np.array([0.5]), np.array([1.0, 1.0, 1.0])).f
    with pytest.raises(ConfigurationError):
        Blocks(model, np.array([0.5, 0.5]), np.array([1.0, 1.0])).f


def test_budget_parameter_gradient():
    # constraint m - p.x has parameter gradient (-x, 1)
    model = demand_model(np.array([0.5, 0.5]))
    x = np.array([0.3, 0.9])
    grad = numeric_gradient(model, "constraint:0", "a", x, np.array([1.0, 2.0, 1.5]))
    assert grad.vector == pytest.approx(np.append(-x, 1.0), abs=1e-9)
    assert grad.fd_residual is not None and grad.fd_residual < 1e-8


def test_constant_objective_gradient_is_zero():
    model = ProblemModel(name="flat", M=2, N=2, objective=lambda x, a: 3.5)
    grad = numeric_gradient(model, "objective", "a", np.zeros(2), np.ones(2))
    assert grad.vector == pytest.approx(np.zeros(2), abs=1e-12)
    assert grad.fd_residual is None


def test_scaled_profit_parameter_gradient():
    # scale-augmented profit has parameter gradient (-s x, s F, profit)
    base = sqrt_profit_model()
    aug = augment_with_scale(base)
    x = np.array([1.44])
    a = np.array([0.5, 1.25, 2.0])          # (w, p, s)
    grad = numeric_gradient(aug, "objective", "a", x, a)
    f_level = np.sqrt(x[0])
    profit = a[1] * f_level - a[0] * x[0]
    expected = np.array([-a[2] * x[0], a[2] * f_level, profit])
    assert grad.vector == pytest.approx(expected, abs=1e-7)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_evaluation_error_names_coordinate():
    model = ProblemModel(
        name="log_domain", M=1, N=1,
        objective=lambda x, a: float(np.log(a[0]) * x[0]))
    with pytest.raises(EvaluationError) as excinfo:
        numeric_gradient(model, "objective", "a", np.ones(1), np.zeros(1))
    assert excinfo.value.coordinate == 0


def test_augment_with_scale_unit_scale_restores_objective():
    base = cd_profit_model()
    aug = augment_with_scale(base)
    x = np.array([0.4, 0.7])
    a = np.array([1.0, 1.2, 2.0])
    value = Blocks(base, x, a).f
    assert Blocks(aug, x, np.append(a, 1.0)).f == pytest.approx(value, abs=1e-14)
    assert aug.N == base.N + 1
    assert aug.parameter_names[-1] == "s"
    # scaling by 3 multiplies the objective
    assert Blocks(aug, x, np.append(a, 3.0)).f == pytest.approx(3.0 * value, abs=1e-13)


def test_augment_twice_at_unit_scales_matches_original():
    base = cd_profit_model()
    twice = augment_with_scale(augment_with_scale(base), scale_name="s2")
    x = np.array([0.4, 0.7])
    a = np.array([1.0, 1.2, 2.0])
    assert (Blocks(twice, x, np.append(a, [1.0, 1.0])).f
            == pytest.approx(Blocks(base, x, a).f, abs=1e-14))


def test_scale_column_of_jacobian_vanishes():
    aug = augment_with_scale(cd_profit_model())
    a = np.array([1.0, 1.0, 2.0, 1.0])
    bundle = decision_jacobian_fd(aug, a)
    assert np.max(np.abs(bundle.x_jac[:, -1])) < 1e-8


@pytest.mark.parametrize("factory,point", [
    (lambda: demand_model(np.array([0.5, 0.5])), np.array([1.0, 1.0, 1.0])),
    (cd_profit_model, np.array([1.0, 1.0, 2.0])),
])
def test_analytic_gradients_match_fd_at_random_points(factory, point):
    model = factory()
    rng = np.random.default_rng(42)
    sol = solve_interior(model, point)
    for _ in range(10):
        x = sol.x * rng.uniform(0.7, 1.3, size=model.M)
        a = point * rng.uniform(0.8, 1.2, size=model.N)
        for which in ["objective"] + [f"constraint:{k}" for k in range(model.K)]:
            for wrt in ("x", "a"):
                grad = numeric_gradient(model, which, wrt, x, a)
                scale = max(1.0, float(np.max(np.abs(grad.vector))))
                assert grad.fd_residual / scale < 1e-5


def test_catalog_analytic_gradients_match_fd_near_solutions():
    from compstat.benchmarks import all_benchmarks
    rng = np.random.default_rng(8)
    for entry in all_benchmarks():
        model = entry.model
        if model.grad_x_objective is None:
            continue
        run = entry.prepare("numeric")
        for _ in range(3):
            x = run.sol.x * rng.uniform(0.9, 1.1, size=model.M)
            a = run.sol.a * rng.uniform(0.95, 1.05, size=model.N)
            for which in ["objective"] + [f"constraint:{k}" for k in range(model.K)]:
                for wrt in ("x", "a"):
                    grad = numeric_gradient(model, which, wrt, x, a)
                    if grad.fd_residual is None:
                        continue
                    scale = max(1.0, float(np.max(np.abs(grad.vector))))
                    assert grad.fd_residual / scale < 1e-5, (entry.name, which, wrt)


def test_invariance_generator_response_identities():
    model = demand_model(np.array([0.5, 0.5]))
    gen = model.invariance_generators[0]
    rng = np.random.default_rng(1)
    points = [(rng.uniform(0.2, 1.0, 2), rng.uniform(0.5, 2.0, 3)) for _ in range(4)]
    assert verify_generator(model, gen, points, tol=1e-6) < 1e-8


def test_invariance_generator_rejects_wrong_responses():
    model = demand_model(np.array([0.5, 0.5]))
    bad = InvarianceGenerator(
        name="bogus", X_map=lambda x: x, A_map=lambda a: a,
        response_f=lambda f: 0.0, response_g=(lambda g: g,))
    with pytest.raises(ConfigurationError):
        verify_generator(model, bad, [(np.array([0.4, 0.6]), np.ones(3))])
