import numpy as np
import pytest

from compstat.benchmarks import get_benchmark
from compstat.benchmarks.profit import cd_profit_model
from compstat.errors import EmptyTangentError, NullPropertyError
from compstat.geometry import build_isovectors, prescribe_isovectors
from compstat.model import Blocks, augment_with_scale
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import solve_interior


def test_nullspace_dimension_law_budget_constraint():
    x = np.array([0.4, 0.8])
    stack = np.append(-x, 1.0).reshape(1, -1)
    iso = build_isovectors(stack)
    assert iso.basis_kind == "nullspace"
    assert iso.count == 2                       # N - C = 3 - 1
    assert np.max(iso.null_residuals) < 1e-14
    # rows orthonormal by construction
    assert iso.vectors @ iso.vectors.T == pytest.approx(np.eye(2), abs=1e-14)
    # one agent's resource rows (b1, b2, omega1, omega2): a direction per
    # taste shift, none moving an endowment
    iso = build_isovectors(np.hstack([np.zeros((2, 2)), np.eye(2)]))
    assert iso.count == 2
    assert np.max(np.abs(iso.vectors[:, 2:])) < 1e-10


def test_empty_target_stack_gives_standard_basis():
    iso = build_isovectors(np.zeros((0, 4)))
    assert iso.vectors == pytest.approx(np.eye(4))


def test_random_stack_orthogonality():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(2, 4))
    iso = build_isovectors(stack)
    assert iso.count == 2
    # independent oracle: explicit inner products against both gradients
    for row in iso.vectors:
        for grad in stack:
            assert abs(row @ grad) < 1e-12


def test_full_rank_stack_has_no_tangent_directions():
    with pytest.raises(EmptyTangentError):
        build_isovectors(np.eye(3))


def test_prescribed_budget_rows_accepted():
    x = np.array([0.4, 0.8])
    stack = np.append(-x, 1.0).reshape(1, -1)
    rows = np.hstack([np.eye(2), x.reshape(-1, 1)])
    iso = prescribe_isovectors(rows, stack)
    assert iso.basis_kind == "prescribed"
    assert np.max(iso.null_residuals) < 1e-15
    assert not iso.redundant


def test_prescribed_profit_scale_rows_accepted():
    aug = augment_with_scale(cd_profit_model())
    a = np.array([1.0, 1.0, 2.0, 1.3])
    sol = solve_interior(aug, a)
    grad = Blocks(aug, sol.x, a).fa
    s_val, phi = a[-1], grad[-1]
    f_level = grad[2] / s_val
    rows = np.zeros((3, 4))
    rows[0, 0] = rows[1, 1] = 1.0
    rows[0, 3] = s_val * sol.x[0] / phi
    rows[1, 3] = s_val * sol.x[1] / phi
    rows[2, 2] = 1.0
    rows[2, 3] = -s_val * f_level / phi
    iso = prescribe_isovectors(rows, grad.reshape(1, -1), annihilates_objective=True)
    assert iso.annihilates_objective
    assert np.max(iso.null_residuals) < 1e-10


def test_normal_direction_rejected():
    x = np.array([0.4, 0.8])
    normal = np.append(-x, 1.0)
    with pytest.raises(NullPropertyError) as excinfo:
        prescribe_isovectors(normal.reshape(1, -1), normal.reshape(1, -1))
    assert excinfo.value.row == 0 and excinfo.value.target == 0


def test_dependent_rows_accepted_with_redundancy_warning():
    x = np.array([0.4, 0.8])
    stack = np.append(-x, 1.0).reshape(1, -1)
    rows = np.array([[1.0, 0.0, x[0]], [2.0, 0.0, 2 * x[0]]])
    with pytest.warns(UserWarning, match="redundant"):
        iso = prescribe_isovectors(rows, stack)
    assert iso.redundant


def test_compensated_columns_identity_and_demand_matrix():
    entry = get_benchmark("slutsky_hicks")
    run = entry.prepare("analytic")
    eye_iso = build_isovectors(np.zeros((0, 3)))
    assert run.sens.x_jac @ eye_iso.vectors.T == pytest.approx(run.sens.x_jac)
    # compensated rows reproduce the hand substitution matrix
    applied = run.sens.x_jac @ run.iso.vectors.T
    assert applied == pytest.approx(np.array([[-0.25, 0.25], [0.25, -0.25]]),
                                    abs=1e-12)


def test_scale_column_contributes_nothing_to_compensated_columns():
    aug = augment_with_scale(cd_profit_model())
    a = np.array([1.0, 1.0, 2.0, 1.0])
    sol = solve_interior(aug, a)
    sens = decision_jacobian_ift(aug, sol)
    rows_with = np.hstack([np.eye(3), np.array([[0.7], [0.9], [-1.1]])])
    rows_without = np.hstack([np.eye(3), np.zeros((3, 1))])
    with_scale = rows_with @ sens.x_jac.T
    without_scale = rows_without @ sens.x_jac.T
    assert np.max(np.abs(with_scale - without_scale)) < 1e-10


def test_compensated_columns_conform_on_benchmarks():
    # G_x dx/da T^T against 1e-6 max(1, max|G_x| max(1, max|dx/da T^T|))
    for name in ("slutsky_hicks", "principal_agent"):
        entry = get_benchmark(name)
        run = entry.prepare("numeric")
        x_semi = run.sens.x_jac @ run.iso.vectors.T
        grads = Blocks(entry.model, run.sol.x, run.sol.a).Gx
        table = grads @ x_semi
        bound = 1e-6 * max(1.0, np.max(np.abs(grads)) * max(1.0, np.max(np.abs(x_semi))))
        assert np.max(np.abs(table)) <= bound, name
        if name == "slutsky_hicks":     # a hundredth of the bound
            assert np.max(np.abs(table)) <= 1e-2 * bound
