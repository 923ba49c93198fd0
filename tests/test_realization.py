"""A model whose comparative statics are known in closed form.

f = -1/2 x^T H x + x^T B a with H positive definite, and linear constraints
g = C x - D a.  With S = (C H^-1 C^T)^-1 and P = H^-1 - H^-1 C^T S C H^-1,
the decision Jacobian is X = P B + H^-1 C^T S D.  For the tangent projector
P_t = I - C^T (C C^T)^-1 C the universal matrix is (P_t X)^T H (P_t X), and
for direction rows T with T D^T = 0 the main matrix is T B^T P B T^T.
Multiplying a constraint by a constant changes none of them, and the
second-order gate lets such rows through; it refuses nearly parallel ones.
"""

import numpy as np
import pytest

from compstat import csm
from compstat.benchmarks.base import BenchmarkEntry
from compstat.errors import ConstraintQualificationError
from compstat.geometry import build_isovectors
from compstat.model import ProblemModel
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import newton_solve

M_DIM, K_DIM, N_DIM = 5, 2, 6


def realization(row_scale, seed=17, angle=None):
    """The seeded quadratic model with constraint row k multiplied by
    row_scale[k], a parameter point, and its (H, B, C, D).  With an `angle`,
    C's second row is turned that far towards its first, and D is moved so
    that the unconstrained maximum H^-1 B a is feasible at the point: the
    multipliers vanish there."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(M_DIM, M_DIM))
    hess = root @ root.T + M_DIM * np.eye(M_DIM)
    b_mat = rng.normal(size=(M_DIM, N_DIM))
    scale = np.asarray(row_scale, dtype=float)[:, None]
    c_mat = scale * rng.normal(size=(K_DIM, M_DIM))
    d_mat = scale * rng.normal(size=(K_DIM, N_DIM))
    a_point = rng.normal(size=N_DIM)
    if angle is not None:
        c_mat[1] = np.cos(angle) * c_mat[0] + np.sin(angle) * c_mat[1]
        x_max = np.linalg.solve(hess, b_mat @ a_point)
        d_mat += np.outer(c_mat @ x_max - d_mat @ a_point, a_point) / (a_point @ a_point)
    rows = range(K_DIM)
    model = ProblemModel(
        name="realization", M=M_DIM, N=N_DIM,
        objective=lambda x, a: float(-0.5 * x @ hess @ x + x @ b_mat @ a),
        constraints=tuple((lambda x, a, k=k: float(c_mat[k] @ x - d_mat[k] @ a)) for k in rows),
        grad_x_objective=lambda x, a: -hess @ x + b_mat @ a,
        grad_a_objective=lambda x, a: b_mat.T @ x,
        hess_xx_objective=lambda x, a: -hess,
        hess_xa_objective=lambda x, a: b_mat,
        grad_x_constraints=tuple((lambda x, a, k=k: c_mat[k]) for k in rows),
        grad_a_constraints=tuple((lambda x, a, k=k: -d_mat[k]) for k in rows),
        hess_xx_constraints=(lambda x, a: np.zeros((M_DIM, M_DIM)),) * K_DIM,
        hess_xa_constraints=(lambda x, a: np.zeros((M_DIM, N_DIM)),) * K_DIM,
    )
    return model, a_point, (hess, b_mat, c_mat, d_mat)


def closed_form_x_jac(hess, b_mat, c_mat, d_mat):
    """X = P B + H^-1 C^T S D."""
    h_inv = np.linalg.inv(hess)
    s_mat = np.linalg.inv(c_mat @ h_inv @ c_mat.T)
    p_mat = h_inv - h_inv @ c_mat.T @ s_mat @ c_mat @ h_inv
    return p_mat, p_mat @ b_mat + h_inv @ c_mat.T @ s_mat @ d_mat


def _relative(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


# scaled rows leave the constraint set as it is, but spread the singular
# values of C C^T over 14 and 16 orders of magnitude
@pytest.mark.parametrize("row_scale", [(1.0, 1.0), (1.0, 1e7), (1e-4, 1e4)])
def test_realization_matches_its_closed_forms(row_scale):
    model, a_point, (hess, b_mat, c_mat, d_mat) = realization(row_scale)
    sol = newton_solve(model, a_point, np.zeros(M_DIM))
    assert sol.converged
    sens = decision_jacobian_ift(model, sol)     # through the second-order gate

    p_mat, x_jac = closed_form_x_jac(hess, b_mat, c_mat, d_mat)
    assert _relative(sens.x_jac, x_jac) < 1e-13

    tangent = np.eye(M_DIM) - c_mat.T @ np.linalg.solve(c_mat @ c_mat.T, c_mat)
    universal = (tangent @ x_jac).T @ hess @ (tangent @ x_jac)
    assert _relative(csm.build_universal(model, sol, sens).matrix, universal) < 1e-13

    iso = build_isovectors(sol.blocks.Ga)
    omega = iso.vectors @ b_mat.T @ p_mat @ b_mat @ iso.vectors.T
    assert _relative(csm.build_omega(model, sol, sens, iso).matrix, omega) < 1e-13


def _entry(model, a_point, x0, blocks):
    """A catalog entry around a realization, its closed-form Jacobian the
    `analytic` route's."""
    x_jac = closed_form_x_jac(*blocks)[1]
    return BenchmarkEntry(name=model.name, model=model, default_point=a_point, x0=x0,
                          isovector_recipe=lambda m, sol, sens: build_isovectors(sol.blocks.Ga),
                          analytic_x_jac=lambda a: x_jac)


@pytest.mark.parametrize("method", ["ift", "fd", "analytic"])
def test_the_gate_refuses_nearly_parallel_constraint_rows_on_every_route(method):
    # rows 1e-8 apart: unit-scaled singular values 1.41 and 5.3e-9.  Newton
    # starts at the maximum and takes no step; every route is refused before
    # it differentiates.  (Rows only scaled apart pass the gate: the IFT
    # above reads it.)
    model, a_point, blocks = realization((1.0, 1.0), angle=1e-8)
    x_max = np.linalg.solve(blocks[0], blocks[1] @ a_point)
    with pytest.raises(ConstraintQualificationError, match="of the unit-length rows"):
        _entry(model, a_point, x_max, blocks).prepare("numeric", method=method)
