import dataclasses

import numpy as np
import pytest
import scipy.linalg

from compstat.benchmarks import all_benchmarks
from compstat.benchmarks.base import BenchmarkEntry
from compstat.benchmarks.slutsky import demand_model
from compstat.errors import (ConstraintQualificationError, DegeneracyError, DomainError,
                             EvaluationError, NonConvergenceError)
from compstat.geometry import build_isovectors
from compstat.model import ProblemModel
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import (SolverConfig, _continuation_start, _dsytrf_lwork,
                             factor_bordered, newton_solve, solve_interior)

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


def _raises(*args):
    raise DomainError("outside the closed form's domain")


# (previous, the registered x_jac scaled by `jac` or None, closed form) at
# slutsky_hicks, a = (4, 1, 1), x0 = (3/7, 4/7); the start taken, by name
@pytest.mark.parametrize("previous, jac, closed_form, start", [
    ([3.5, 1.0, 1.0], 1.0, None, "prediction"),
    ([3.8, 1.0, 1.0], None, None, "prediction"),          # no Jacobian: x_cf(previous)
    ([4.0, 1.0, 0.9], 1.0, None, "x0"),                   # exact along m: nothing to check
    ([4.0, 1.0, 1.0], 1.0, None, "x0"),                   # a degenerate grid step
    ([2.5, 1.0, 1.0], 1.0, None, "x0"),                   # a step beyond EULER_REACH
    ([3.5, 1.0, 1.0], 1.0, _raises, "x0"),                # the prediction raises
    ([3.5, 1.0, 1.0], -30.0, None, "x0"),                 # a worse start than x0
])
def test_the_cross_check_starts_from_a_prediction_only_where_that_is_the_better_start(
        previous, jac, closed_form, start):
    from compstat.benchmarks import get_benchmark
    entry = get_benchmark("slutsky_hicks")
    model = entry.model
    if closed_form is not None:
        model = dataclasses.replace(model, analytic_solution=closed_form)
    x_jac = None if jac is None else lambda a: jac * entry.analytic_x_jac(a)
    a, x0 = np.array([4.0, 1.0, 1.0]), np.array(entry.x0)
    chosen = _continuation_start(model, a, x0, np.array(previous), x_jac, 1e-10)
    assert (chosen is x0) == (start == "x0")


def test_a_prediction_outside_the_objectives_domain_is_not_a_start():
    # max a x - x^2/2 over x > 0: the gradient a - x is defined everywhere,
    # so only the objective, NaN at x <= 0, sees the prediction leave
    model = ProblemModel(
        name="positive_quadratic", M=1, N=1,
        objective=lambda x, a: a[0] * x[0] - x[0] ** 2 / 2 if x[0] > 0 else float("nan"),
        grad_x_objective=lambda x, a: np.array([a[0] - x[0]]),
        analytic_solution=lambda a: (np.array([a[0]]), np.zeros(0)))
    a, x0, previous = np.array([0.1]), np.array([5.0]), np.array([0.15])

    def start(slope):                            # predicts x = 0.15 - slope * 0.05
        return _continuation_start(model, a, x0, previous, lambda b: np.array([[slope]]),
                                   1e-10)
    assert start(4.0) is x0
    assert start(2.0) == pytest.approx([0.05])


@pytest.mark.parametrize("field, block", [
    ("grad_x_constraints", lambda x, a: np.array([np.inf, 1.0])),
    ("hess_xx_objective", lambda x, a: np.full((2, 2), np.nan)),
])
def test_non_finite_blocks_raise_a_typed_error_before_lapack(field, block):
    # neither np.linalg.svd and lstsq nor LAPACK's factorization of the
    # Newton system may see a non-finite block
    model = demand_model(np.array([0.5, 0.5]))
    value = (block,) if field.endswith("constraints") else block
    broken = dataclasses.replace(model, **{field: value})
    with pytest.raises(EvaluationError, match="non-finite"):
        newton_solve(broken, np.array([1.0, 1.0, 1.0]), np.array([0.3, 0.8]))


def test_recover_multipliers_log_utility():
    # started at the optimum, Newton takes no step: lam is the least-squares
    # recovery from grad_x f = -lam grad_x g
    model = demand_model(np.array([0.5, 0.5]))
    sol = newton_solve(model, np.array([1.0, 1.0, 1.0]), np.array([0.5, 0.5]))
    assert sol.iterations == 0
    assert sol.lam == pytest.approx([1.0], abs=1e-12)


def test_recover_multipliers_rank_deficient_gradients():
    # two copies of one constraint: the gradient stack loses rank.  Away
    # from the maximum the Newton system is singular; at it, the multipliers
    # are the minimum-norm ones, and the solution's gate refuses the point
    dup = ProblemModel(
        name="dup", M=3, N=3,
        objective=lambda x, a: float(-x @ x),
        constraints=(lambda x, a: float(x[0] + x[1] + x[2] - a[0]),) * 2,
    )
    with pytest.raises(DegeneracyError, match="singular Newton system"):
        newton_solve(dup, np.ones(3), np.array([0.5, 0.5, 0.5]))
    sol = newton_solve(dup, np.ones(3), np.full(3, 1.0 / 3.0))
    assert sol.converged and sol.iterations == 0
    assert sol.lam == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-10)
    with pytest.raises(ConstraintQualificationError, match="linearly dependent"):
        sol.bordered


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
    with pytest.raises(DegeneracyError, match="singular Newton system"):
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


def test_catalog_bordered_inertia_is_that_of_a_strict_maximum():
    # the second-order sufficient condition: the bordered matrix at every
    # catalog default has inertia (K, M, 0) on both pipelines
    for entry in all_benchmarks():
        for pipeline in ("analytic", "numeric"):
            run = entry.prepare(pipeline)
            expected = (entry.model.K, entry.model.M, 0)
            assert run.sol.bordered.inertia() == expected, (entry.name, pipeline)


def _inertia_by_eigvalsh(mat):
    eig = np.linalg.eigvalsh(mat)
    return int((eig > 0).sum()), int((eig < 0).sum()), int((eig == 0).sum())


def _symmetric_cases(rng):
    """Seeded symmetric matrices: dense, zero-diagonal (2 x 2 pivots, often
    adjacent blocks with equal negative pivot entries) and bordered
    [[H, G^T], [G, 0]]."""
    for _ in range(300):
        n = int(rng.integers(1, 10))
        dense = rng.standard_normal((n, n))
        yield dense + dense.T
        zero_diagonal = dense + dense.T
        np.fill_diagonal(zero_diagonal, 0.0)
        yield zero_diagonal
        m, k = int(rng.integers(1, 8)), int(rng.integers(0, 4))
        h = rng.standard_normal((m, m))
        yield _upper_mirrored(np.block([[h + h.T, rng.standard_normal((k, m)).T],
                                        [np.zeros((k, m)), np.zeros((k, k))]]))


def test_inertia_matches_eigvalsh_sign_counts():
    rng = np.random.default_rng(2024)
    checked = two_by_two = repeated = 0
    for mat in _symmetric_cases(rng):
        eig = np.abs(np.linalg.eigvalsh(mat))
        if eig.min() <= 1e-8 * eig.max():
            continue                     # numerically singular: no sign to compare
        factor = factor_bordered(mat, lambda: "test matrix")
        assert factor.inertia() == _inertia_by_eigvalsh(mat), mat
        checked += 1
        negative = [int(p) for p in factor.pivots if p < 0]
        two_by_two += bool(negative)
        # equal negative entries in more than one block: pairing rows by
        # pivot value would misread D
        repeated += len(negative) > 2 * len(set(negative))
    assert checked > 800 and two_by_two > 300 and repeated > 20


def test_inertia_counts_an_exactly_zero_pivot():
    factor = factor_bordered(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
                             lambda: "test matrix")
    assert factor.inertia() == (1, 1, 1)
    assert factor.rcond == 0.0
    assert factor.solve(np.ones(3), lambda: "test system") is None


def _constant_returns_entry():
    """a3 sqrt(x1 x2) - a1 x1 - a2 x2, no derivatives registered: at
    a = (1, 1, 2) every x1 = x2 is stationary and L_xx is singular."""
    model = ProblemModel(
        name="constant_returns", M=2, N=3,
        objective=lambda x, a: float(a[2] * np.sqrt(x[0] * x[1]) - a[0] * x[0] - a[1] * x[1]))
    return BenchmarkEntry(
        name="constant_returns", model=model, default_point=np.array([1.0, 1.0, 2.0]),
        x0=np.array([1.0, 1.0]),
        isovector_recipe=lambda model, sol, sens: build_isovectors(sol.blocks.Ga))


@pytest.mark.parametrize("method", ["ift", "analytic", "fd"])
def test_constant_returns_is_refused_by_the_inertia_gate(method):
    entry = _constant_returns_entry()
    with pytest.raises(DegeneracyError, match=r"inertia .* expected \(0, 2, 0\)"):
        entry.prepare("numeric", method=method)
    sol = newton_solve(entry.model, entry.default_point, entry.x0)
    assert sol.converged
    with pytest.raises(DegeneracyError, match="not a strict constrained maximum"):
        decision_jacobian_ift(entry.model, sol)


def test_ift_solves_with_the_gates_factor(monkeypatch):
    from compstat.benchmarks import get_benchmark
    entry = get_benchmark("multi_constraint_utility")
    sol = newton_solve(entry.model, entry.default_point, entry.x0)
    sol.bordered
    calls = []
    dsytrf = scipy.linalg.lapack.dsytrf
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf",
                        lambda *args, **kwargs: calls.append(1) or dsytrf(*args, **kwargs))
    sens = decision_jacobian_ift(entry.model, sol)
    assert calls == [] and np.isfinite(sens.x_jac).all()
    newton_solve(entry.model, entry.default_point, entry.x0 * 1.1)
    assert calls                         # the spy sees Newton's factorizations


def test_stencil_config_tightens_tol_and_keeps_every_other_field():
    config = SolverConfig(tol=1e-8, max_iter=7)
    assert config.stencil() == SolverConfig(tol=1e-12, max_iter=7)
    assert SolverConfig(tol=1e-14).stencil().tol == 1e-14


def _upper_mirrored(mat):
    """The exactly symmetric matrix with the upper triangle of `mat`."""
    return np.triu(mat) + np.triu(mat, 1).T


def _indefinite(n, rng):
    """A dense, exactly symmetric matrix with eigenvalues of both signs."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.5, 2.0, size=n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return _upper_mirrored(q @ np.diag(eig) @ q.T)


def _tridiagonal(n):
    """Symmetric indefinite tridiagonal: alternating diagonal, unit off-diagonals."""
    return (np.diag(np.where(np.arange(n) % 2, -2.0, 3.0))
            + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))


BACKWARD_C = 16     # backward-error bound in units of eps * ||A|| * ||s||


@pytest.mark.parametrize("kind, n", [("indefinite", n) for n in [*range(2, 13), 63, 64, 65, 81]]
                         + [("positive definite", 6), ("tridiagonal", 9)])
def test_bordered_solve_has_a_small_backward_error(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        mat = _indefinite(n, rng)
        if kind == "positive definite":
            mat = _upper_mirrored(mat @ mat)
        elif kind == "tridiagonal":
            mat = _tridiagonal(n)
        rhs = rng.standard_normal(n)
        factor = factor_bordered(mat, lambda: "test matrix")
        step = factor.solve(rhs, lambda: "test system")
        assert factor.rcond > 0.0
        residual = np.max(np.abs(mat @ step - rhs))
        bound = (BACKWARD_C * np.finfo(float).eps
                 * np.max(np.sum(np.abs(mat), axis=1)) * np.max(np.abs(step)))
        assert residual <= bound


def _ill_conditioned():
    """Symmetric indefinite 2 x 2 with reciprocal condition about 1e-17."""
    q = np.array([[0.6, 0.8], [-0.8, 0.6]])
    return _upper_mirrored(q @ np.diag([1.0, -1e-17]) @ q.T)


def _singular_model():
    """Objective a1 x1 under x1 + x2 = a2: the bordered matrix
    [[0, 0, 1], [0, 0, 1], [1, 1, 0]] is singular; with a1 = 0 every
    feasible point is stationary."""
    return ProblemModel(
        name="flat", M=2, N=2,
        objective=lambda x, a: float(a[0] * x[0]),
        constraints=(lambda x, a: float(x[0] + x[1] - a[1]),),
        grad_x_objective=lambda x, a: np.array([a[0], 0.0]),
        hess_xx_objective=lambda x, a: np.zeros((2, 2)))


def test_singular_bordered_system_raises_the_callers_error():
    flat = _singular_model()
    with pytest.raises(DegeneracyError, match="singular Newton system"):
        newton_solve(flat, np.array([1.0, 1.0]), np.array([0.2, 0.3]))
    sol = newton_solve(flat, np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert sol.converged and sol.iterations == 0
    with pytest.raises(DegeneracyError, match="singular bordered matrix"):
        decision_jacobian_ift(flat, sol)


def test_asymmetric_hessian_gets_the_step_of_its_symmetrized_form():
    # a registered Hessian one ulp off symmetric: Bunch-Kaufman reads one
    # triangle, so the step must be the one of 0.5 (H + H^T), whichever
    # triangle carries the rounding (condition about 100, so the ulp shows)
    sym = np.array([[-2.0, 1.9, 0.1], [1.9, -1.9, 0.2], [0.1, 0.2, -3.0]])
    off = sym.copy()
    off[0, 1] = np.nextafter(off[0, 1], 1.0)

    def model(hess):
        return ProblemModel(name="ulp", M=3, N=3,
                            objective=lambda x, a: float(a @ x + 0.5 * x @ hess @ x),
                            grad_x_objective=lambda x, a: a + hess @ x,
                            hess_xx_objective=lambda x, a: hess)

    a, x0 = np.array([1.0, 2.0, 3.0]), np.zeros(3)
    steps = [newton_solve(model(hess), a, x0, SolverConfig(max_iter=1)).x
             for hess in (off, off.T, 0.5 * (off + off.T))]
    assert np.array_equal(steps[0], steps[2]) and np.array_equal(steps[1], steps[2])


def test_ill_conditioned_newton_step_still_warns():
    hess = _ill_conditioned()
    model = ProblemModel(name="ill", M=2, N=2,
                         objective=lambda x, a: float(a @ x - 0.5 * x @ hess @ x),
                         grad_x_objective=lambda x, a: a - hess @ x,
                         hess_xx_objective=lambda x, a: -hess)
    with pytest.warns(scipy.linalg.LinAlgWarning, match="ill-conditioned"):
        newton_solve(model, np.array([1.0, 2.0]), np.zeros(2), SolverConfig(max_iter=1))


def test_cached_dsytrf_workspace_is_the_per_call_query():
    for order in range(1, 101):
        lwork, info = scipy.linalg.lapack.dsytrf_lwork(order)
        assert info == 0
        assert _dsytrf_lwork(order) == int(lwork)


def _quartic(finite_above: float):
    """Objective a x - x^4 / 4, with a Hessian that reads NaN below
    `finite_above`: Newton from x = 3 at a = 1 takes one step to 2.04."""
    return ProblemModel(
        name="quartic", M=1, N=1,
        objective=lambda x, a: float(a[0] * x[0] - x[0] ** 4 / 4),
        grad_x_objective=lambda x, a: np.array([a[0] - x[0] ** 3]),
        hess_xx_objective=lambda x, a: np.array(
            [[-3.0 * x[0] ** 2 if x[0] > finite_above else np.nan]]))


def test_newton_error_messages_name_the_iteration_they_stopped_at():
    with pytest.raises(EvaluationError) as exc:
        newton_solve(_quartic(2.5), np.array([1.0]), np.array([3.0]))
    assert str(exc.value) == "non-finite Newton system for 'quartic' at iteration 1"
    with pytest.raises(EvaluationError) as exc:
        newton_solve(_quartic(3.5), np.array([1.0]), np.array([3.0]))
    assert str(exc.value) == "non-finite Newton system for 'quartic' at iteration 0"
    with pytest.raises(DegeneracyError) as exc:
        newton_solve(_singular_model(), np.array([1.0, 1.0]), np.array([0.2, 0.3]))
    assert str(exc.value) == "singular Newton system for 'flat' at iteration 0"
