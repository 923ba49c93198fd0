"""A model whose comparative statics are known in closed form.

f = -1/2 x^T H x + x^T B a with H positive definite, and linear constraints
g = C x - D a.  With S = (C H^-1 C^T)^-1 and P = H^-1 - H^-1 C^T S C H^-1,
the decision Jacobian is X = P B + H^-1 C^T S D.  For the tangent projector
P_t = I - C^T (C C^T)^-1 C the universal matrix is (P_t X)^T H (P_t X), and
for direction rows T with T D^T = 0 the main matrix is T B^T P B T^T.
Multiplying a constraint by a constant changes none of them.
"""

import numpy as np
import pytest

from compstat import csm
from compstat.geometry import build_isovectors
from compstat.model import ProblemModel
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import newton_solve

M_DIM, K_DIM, N_DIM = 5, 2, 6


def realization(row_scale, seed=17):
    """The seeded quadratic model with constraint row k multiplied by
    row_scale[k], a parameter point, and its (H, B, C, D)."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(M_DIM, M_DIM))
    hess = root @ root.T + M_DIM * np.eye(M_DIM)
    b_mat = rng.normal(size=(M_DIM, N_DIM))
    scale = np.asarray(row_scale, dtype=float)[:, None]
    c_mat = scale * rng.normal(size=(K_DIM, M_DIM))
    d_mat = scale * rng.normal(size=(K_DIM, N_DIM))
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
    return model, rng.normal(size=N_DIM), (hess, b_mat, c_mat, d_mat)


def _relative(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


# scaled rows leave the constraint set as it is, but spread the singular
# values of C C^T over 14 and 16 orders of magnitude
@pytest.mark.parametrize("row_scale", [(1.0, 1.0), (1.0, 1e7), (1e-4, 1e4)])
def test_realization_matches_its_closed_forms(row_scale):
    model, a_point, (hess, b_mat, c_mat, d_mat) = realization(row_scale)
    sol = newton_solve(model, a_point, np.zeros(M_DIM))
    assert sol.converged
    sens = decision_jacobian_ift(model, sol)

    h_inv = np.linalg.inv(hess)
    s_mat = np.linalg.inv(c_mat @ h_inv @ c_mat.T)
    p_mat = h_inv - h_inv @ c_mat.T @ s_mat @ c_mat @ h_inv
    x_jac = p_mat @ b_mat + h_inv @ c_mat.T @ s_mat @ d_mat
    assert _relative(sens.x_jac, x_jac) < 1e-13

    tangent = np.eye(M_DIM) - c_mat.T @ np.linalg.solve(c_mat @ c_mat.T, c_mat)
    universal = (tangent @ x_jac).T @ hess @ (tangent @ x_jac)
    assert _relative(csm.build_universal(model, sol, sens).matrix, universal) < 1e-13

    iso = build_isovectors(sol.blocks.Ga)
    omega = iso.vectors @ b_mat.T @ p_mat @ b_mat @ iso.vectors.T
    assert _relative(csm.build_omega(model, sol, sens, iso).matrix, omega) < 1e-13
