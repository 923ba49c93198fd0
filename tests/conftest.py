import dataclasses

import numpy as np
import pytest
import scipy.linalg

from compstat.benchmarks import BenchmarkEntry, get_benchmark
from compstat.model import BLOCK_FIELDS, ProblemModel


@pytest.fixture(scope="session")
def slutsky_entry():
    return get_benchmark("slutsky_hicks")


@pytest.fixture(scope="session")
def profit_entry():
    return get_benchmark("profit_cd")


@pytest.fixture(scope="session")
def slutsky_run(slutsky_entry):
    return slutsky_entry.prepare("analytic")


@pytest.fixture(scope="session")
def profit_run(profit_entry):
    return profit_entry.prepare("analytic")


def fd_only(entry: BenchmarkEntry) -> BenchmarkEntry:
    """`entry` with no derivative callable, closed form or registered
    Jacobian: its FD-only twin."""
    unregistered = {field: None for kind, fields in BLOCK_FIELDS.items() if kind != "value"
                    for field in fields}
    model = dataclasses.replace(entry.model, analytic_solution=None, **unregistered)
    return dataclasses.replace(entry, model=model, analytic_x_jac=None,
                               analytic_lam_jac=None)


def sqrt_profit_model():
    """Single-input firm with square-root technology: p sqrt(x) - w x."""
    return ProblemModel(
        name="sqrt_profit", M=1, N=2,
        objective=lambda x, a: (float("nan") if x[0] <= 0
                                else float(a[1] * np.sqrt(x[0]) - a[0] * x[0])),
        parameter_names=("w", "p"),
    )


def separable_model():
    """max G(x) + H(a): decisions never respond to the parameters."""
    x_center = np.array([0.7, -0.2, 1.1])
    curv = np.diag([1.0, 2.0, 1.5])

    def objective(x, a):
        d = x - x_center
        return float(-0.5 * d @ curv @ d + np.sin(a[0]) + a[1] ** 2)

    return ProblemModel(
        name="separable", M=3, N=2, objective=objective,
        grad_x_objective=lambda x, a: -curv @ (x - x_center),
        hess_xx_objective=lambda x, a: -curv,
        hess_xa_objective=lambda x, a: np.zeros((3, 2)),
        analytic_solution=lambda a: (x_center.copy(), np.zeros(0)),
    ), x_center


def generic_quadratic_instance(seed: int = 3):
    """Well-conditioned linear-quadratic model: M=5 decisions, K=2 linear
    constraints, N=4 parameters entering both objective and constraints."""
    rng = np.random.default_rng(seed)
    m_dim, n_dim, k_dim = 5, 4, 2
    basis = rng.normal(size=(m_dim, m_dim))
    curv = basis @ basis.T + m_dim * np.eye(m_dim)      # SPD
    b_mat = rng.normal(size=(m_dim, n_dim))
    c_vec = rng.normal(size=m_dim)
    d_mat = rng.normal(size=(k_dim, m_dim))
    e_mat = rng.normal(size=(k_dim, n_dim))
    e_vec = rng.normal(size=k_dim)

    def solution(a):
        bordered = np.zeros((m_dim + k_dim, m_dim + k_dim))
        bordered[:m_dim, :m_dim] = -curv
        bordered[:m_dim, m_dim:] = d_mat.T
        bordered[m_dim:, :m_dim] = d_mat
        rhs = np.concatenate([-(b_mat @ a + c_vec), e_mat @ a + e_vec])
        z = scipy.linalg.solve(bordered, rhs)
        return z[:m_dim], z[m_dim:]

    def con(k):
        return lambda x, a: float(d_mat[k] @ x - (e_mat[k] @ a + e_vec[k]))

    model = ProblemModel(
        name="generic_quadratic", M=m_dim, N=n_dim,
        objective=lambda x, a: float(-0.5 * x @ curv @ x + x @ (b_mat @ a + c_vec)),
        constraints=(con(0), con(1)),
        grad_x_objective=lambda x, a: -curv @ x + b_mat @ a + c_vec,
        grad_a_objective=lambda x, a: b_mat.T @ x,
        grad_x_constraints=tuple((lambda x, a, _k=k: d_mat[_k]) for k in range(k_dim)),
        grad_a_constraints=tuple((lambda x, a, _k=k: -e_mat[_k]) for k in range(k_dim)),
        hess_xx_objective=lambda x, a: -curv,
        hess_xa_objective=lambda x, a: b_mat,
        hess_xx_constraints=(lambda x, a: np.zeros((m_dim, m_dim)),) * k_dim,
        hess_xa_constraints=(lambda x, a: np.zeros((m_dim, n_dim)),) * k_dim,
        analytic_solution=solution,
    )
    a_point = rng.normal(size=n_dim)
    return model, a_point
