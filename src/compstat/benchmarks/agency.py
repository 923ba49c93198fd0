"""Contract design with hidden effort: expected-cost minimization subject
to a participation constraint and an incentive constraint, one per effort
level, plus probability-normalization conditions that constrain only the
parameter space.

State layout: a = (P1[M], P2[M], B1, B2, s1, s2).  The engine maximizes, so
the registered objective is the negated expected wage bill; multipliers in
the cost-minimization sign convention are recovered by negation.  The normalization conditions never
enter the first-order system (their decision-space gradients vanish); they
only extend the target stack for the compensation rows.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..csm import build_omega, estimate_rank
from ..diagnostics import (IDENTITY_TOL, ROUNDING_TOL, check_conformance, matrix_mismatch,
                           min_eig_violation, report)
from ..errors import DomainError
from ..geometry import prescribe_isovectors
from ..model import InvarianceGenerator, ProblemModel
from .base import BenchRun, BenchmarkEntry, constraint_fields


def _slots(m_dim):
    iB1, iB2 = 2 * m_dim, 2 * m_dim + 1
    iS1, iS2 = 2 * m_dim + 2, 2 * m_dim + 3
    return iB1, iB2, iS1, iS2


def _on_payments(derivative, shape):
    """`derivative` on the payment domain x > 0, NaN off it (as g is)."""
    def guarded(x, a):
        return np.full(shape, np.nan) if x.min() <= 0 else derivative(x, a)
    return guarded


def contract_model(m_dim: int, name="principal_agent") -> ProblemModel:
    """Wage utility v(x) = sqrt(x); payments enter linearly in the cost."""
    iB1, iB2, iS1, iS2 = _slots(m_dim)
    n_dim = 2 * m_dim + 4

    def p1(a):
        return a[:m_dim]

    def p2(a):
        return a[m_dim:2 * m_dim]

    def objective(x, a):
        return float(-(x @ p1(a)))

    def make_constraint(which):
        probs = p1 if which == 0 else p2
        level = iB1 if which == 0 else iB2

        def g(x, a):
            if np.any(x <= 0):
                return float("nan")
            return float(a[level] - np.sqrt(x) @ probs(a))

        def g_x(x, a):
            return -probs(a) / (2.0 * np.sqrt(x))

        def g_a(x, a):
            out = np.zeros(n_dim)
            out[which * m_dim:(which + 1) * m_dim] = -np.sqrt(x)
            out[level] = 1.0
            return out

        def g_xx(x, a):
            return np.diag(probs(a) / (4.0 * x**1.5))

        def g_xa(x, a):
            out = np.zeros((m_dim, n_dim))
            out[:, which * m_dim:(which + 1) * m_dim] = np.diag(-1.0 / (2.0 * np.sqrt(x)))
            return out

        return (g, _on_payments(g_x, m_dim), _on_payments(g_a, n_dim),
                _on_payments(g_xx, (m_dim, m_dim)), _on_payments(g_xa, (m_dim, n_dim)))

    def grad_a_objective(x, a):
        out = np.zeros(n_dim)
        out[:m_dim] = -x
        return out

    def hess_xa_objective(x, a):
        out = np.zeros((m_dim, n_dim))
        out[:, :m_dim] = -np.eye(m_dim)
        return out

    def solution(a):
        try:
            x, nu = contract_oracle(a, m_dim)
        except ValueError as exc:         # no interior optimum at this point
            raise DomainError(str(exc)) from exc
        return x, -nu

    def scale_generator(which):
        def a_map(a):
            out = np.zeros(n_dim)
            blk = slice(which * m_dim, (which + 1) * m_dim)
            out[blk] = a[blk]
            out[iB1 if which == 0 else iB2] = a[iB1 if which == 0 else iB2]
            out[iS1 if which == 0 else iS2] = a[iS1 if which == 0 else iS2]
            return out

        return InvarianceGenerator(
            name=f"effort_{which + 1}_block_scale",
            X_map=lambda x: np.zeros(m_dim),
            A_map=a_map,
        )

    names = (tuple(f"P1_{i + 1}" for i in range(m_dim))
             + tuple(f"P2_{i + 1}" for i in range(m_dim))
             + ("B1", "B2", "s1", "s2"))
    return ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=objective,
        **constraint_fields([make_constraint(0), make_constraint(1)]),
        grad_x_objective=lambda x, a: -p1(a),
        grad_a_objective=grad_a_objective,
        hess_xx_objective=lambda x, a: np.zeros((m_dim, m_dim)),
        hess_xa_objective=hess_xa_objective,
        analytic_solution=solution,
        parameter_names=names,
        invariance_generators=(scale_generator(0), scale_generator(1)),
    )


def contract_oracle(a, m_dim: int):
    """Closed form through the substitution u = sqrt(x): the problem becomes
    a two-constraint quadratic program with diagonal weight."""
    iB1, iB2, _, _ = _slots(m_dim)
    probs = np.vstack([a[:m_dim], a[m_dim:2 * m_dim]])   # 2 x M
    levels = np.array([a[iB1], a[iB2]])
    if np.any(probs[0] <= 0):
        raise DomainError("the oracle needs positive outcome probabilities "
                          f"P1_1..P1_{m_dim}; got {probs[0].tolist()}")
    d_inv = 1.0 / probs[0]
    gram = probs @ (d_inv[:, None] * probs.T)
    if np.linalg.cond(gram) > 1e12:
        raise ValueError("the two requirement constraints are linearly "
                         "dependent; the effort levels are indistinguishable")
    nu = 2.0 * scipy.linalg.solve(gram, levels, assume_a="pos")
    u = 0.5 * d_inv * (probs.T @ nu)
    if np.any(u <= 0):
        raise ValueError("oracle instance has no interior payment schedule")
    return u**2, nu


def contract_rows(model: ProblemModel, sol, _sens=None):
    """Per outcome and effort level: probability direction, utility-weighted
    requirement compensation, and normalization compensation."""
    m_dim = model.M
    iB1, iB2, iS1, iS2 = _slots(m_dim)
    v_vals = np.sqrt(sol.x)
    rows = np.zeros((2 * m_dim, model.N))
    for j in range(m_dim):
        rows[j, j] = 1.0
        rows[j, iB1] = v_vals[j]
        rows[j, iS1] = 1.0
        rows[m_dim + j, m_dim + j] = 1.0
        rows[m_dim + j, iB2] = v_vals[j]
        rows[m_dim + j, iS2] = 1.0
    stack = np.vstack([
        sol.blocks.Ga,
        _normalization_gradients(model),
    ])
    return prescribe_isovectors(rows, stack)


def _normalization_gradients(model: ProblemModel):
    m_dim = model.M
    iB1, iB2, iS1, iS2 = _slots(m_dim)
    out = np.zeros((2, model.N))
    out[0, :m_dim] = -1.0
    out[0, iS1] = 1.0
    out[1, m_dim:2 * m_dim] = -1.0
    out[1, iS2] = 1.0
    return out


def cost_sign_multipliers(run: BenchRun) -> np.ndarray:
    """Multipliers in the cost-minimization sign convention."""
    return -run.sol.lam


def reduced_jacobian(run: BenchRun, which: int) -> np.ndarray:
    """Columns j: the normalization-eliminated compensated derivative of x
    against outcome j of effort level `which` (0 or 1)."""
    m_dim = run.model.M
    iB1, iB2, _, _ = _slots(m_dim)
    jac = run.sens.x_jac
    blk = jac[:, which * m_dim:(which + 1) * m_dim]
    level_col = jac[:, iB1 if which == 0 else iB2]
    probs = run.sol.a[which * m_dim:(which + 1) * m_dim]
    level = run.sol.a[iB1 if which == 0 else iB2]
    v_vals = np.sqrt(run.sol.x)
    base = blk - np.outer(blk @ probs, np.ones(m_dim))
    comp = np.outer(level_col, v_vals - level)
    return base + comp


def raw_jacobian(run: BenchRun, which: int) -> np.ndarray:
    """Same columns through the three-term rows (no elimination)."""
    m_dim = run.model.M
    iB1, iB2, iS1, iS2 = _slots(m_dim)
    jac = run.sens.x_jac
    blk = jac[:, which * m_dim:(which + 1) * m_dim]
    level_col = jac[:, iB1 if which == 0 else iB2]
    s_col = jac[:, iS1 if which == 0 else iS2]
    v_vals = np.sqrt(run.sol.x)
    return blk + np.outer(level_col, v_vals) + np.outer(s_col, np.ones(m_dim))


def phi_blocks(run: BenchRun):
    lam = cost_sign_multipliers(run)
    v_prime = 1.0 / (2.0 * np.sqrt(run.sol.x))
    coeff1 = 1.0 - lam[0] * v_prime
    coeff2 = -lam[1] * v_prime
    d1, d2 = raw_jacobian(run, 0), raw_jacobian(run, 1)
    return {
        (0, 0): coeff1[:, None] * d1, (0, 1): coeff1[:, None] * d2,
        (1, 0): coeff2[:, None] * d1, (1, 1): coeff2[:, None] * d2,
    }


def _pa_check_full_nsd(run):
    omega = build_omega(run.model, run.sol, run.sens, run.iso)
    blocks = phi_blocks(run)
    m_dim = run.model.M
    phi_full = np.block([[blocks[(0, 0)], blocks[(0, 1)]],
                         [blocks[(1, 0)], blocks[(1, 1)]]])
    res = matrix_mismatch(phi_full, -omega.matrix)
    res = max(res, min_eig_violation(phi_full, "negative"))
    return report("contract_csm_nsd", "contract-responses-sign", res, IDENTITY_TOL)


def _pa_check_block_identities(run):
    blocks = phi_blocks(run)
    m_dim = run.model.M
    ratio = -run.sol.a[:m_dim] / run.sol.a[m_dim:2 * m_dim]
    r_mat = np.diag(ratio)
    res = matrix_mismatch(blocks[(1, 1)], r_mat @ blocks[(0, 0)] @ r_mat)
    res = max(res, matrix_mismatch(blocks[(0, 1)], blocks[(0, 0)] @ r_mat))
    return report("block_identities", "probability-ratio-blocks", res, IDENTITY_TOL)


def _pa_check_reduced_operators(run):
    worst = max(matrix_mismatch(reduced_jacobian(run, 0), raw_jacobian(run, 0)),
                matrix_mismatch(reduced_jacobian(run, 1), raw_jacobian(run, 1)))
    return report("reduced_operator_equality", "normalization-elimination",
                  worst, IDENTITY_TOL)


def low_effort_wage_matrix(run: BenchRun) -> np.ndarray:
    """Compensated responses of the wage utilities against the low-effort
    probabilities; negative semidefinite with two forced null directions."""
    v_prime = 1.0 / (2.0 * np.sqrt(run.sol.x))
    return v_prime[:, None] * reduced_jacobian(run, 1)


def _pa_check_h_matrix(run):
    h_mat = low_effort_wage_matrix(run)
    lam = cost_sign_multipliers(run)
    blocks = phi_blocks(run)
    res = matrix_mismatch(blocks[(1, 1)] / (-lam[1]), h_mat)
    res = max(res, min_eig_violation(h_mat, "negative"))
    rank = estimate_rank(h_mat)
    ok = rank <= run.model.M - 2
    return report("low_effort_matrix", "wage-response-sign-and-rank",
                  res if ok else max(res, 1.0), IDENTITY_TOL, rank=rank)


def _pa_check_multiplier_signs(run):
    lam = cost_sign_multipliers(run)
    v_prime = 1.0 / (2.0 * np.sqrt(run.sol.x))
    res = max(0.0, -lam[0]) + max(0.0, lam[1])
    res = max(res, float(np.max(1.0 - lam[0] * v_prime)))
    return report("multiplier_signs", "effort-shadow-price-signs",
                  max(0.0, res), ROUNDING_TOL,
                  high_effort=float(lam[0]), low_effort=float(lam[1]))


def _pa_check_diagonal_inequalities(run):
    d1 = np.diag(reduced_jacobian(run, 0))
    d2 = np.diag(reduced_jacobian(run, 1))
    res = max(float(np.max(np.maximum(-d1, 0.0))), float(np.max(np.maximum(d2, 0.0))))
    return report("diagonal_inequalities", "own-probability-response-signs",
                  res, IDENTITY_TOL,
                  high_effort_diag=d1.tolist(), low_effort_diag=d2.tolist())


def _pa_check_homogeneity(run):
    m_dim = run.model.M
    iB1, iB2, _, _ = _slots(m_dim)
    worst = 0.0
    for which in range(2):
        blk = run.sens.x_jac[:, which * m_dim:(which + 1) * m_dim]
        level_col = run.sens.x_jac[:, iB1 if which == 0 else iB2]
        probs = run.sol.a[which * m_dim:(which + 1) * m_dim]
        level = run.sol.a[iB1 if which == 0 else iB2]
        resid = blk @ probs + level * level_col
        worst = max(worst, float(np.max(np.abs(resid))))
    return report("block_scale_invariance", "per-effort-degree-zero", worst, IDENTITY_TOL)


def register_principal_agent(m_dim: int = 3,
                             p_high=(0.2, 0.3, 0.5), p_low=(0.5, 0.3, 0.2),
                             c_high=0.8, c_low=0.2, u_bar=1.0) -> BenchmarkEntry:
    model = contract_model(m_dim)
    default_point = np.concatenate([
        np.asarray(p_high, dtype=float), np.asarray(p_low, dtype=float),
        [c_high + u_bar, c_low + u_bar, 1.0, 1.0]])
    x_star, lam_cost = contract_oracle(default_point, m_dim)
    if not (lam_cost[0] >= 0.0 >= lam_cost[1]):
        raise ValueError(
            "instance does not make both requirement constraints bind in the "
            "intended directions; choose different probabilities or costs")
    suite = (
        ("contract_csm_nsd", _pa_check_full_nsd),
        ("block_identities", _pa_check_block_identities),
        ("reduced_operator_equality", _pa_check_reduced_operators),
        ("low_effort_matrix", _pa_check_h_matrix),
        ("multiplier_signs", _pa_check_multiplier_signs),
        ("diagonal_inequalities", _pa_check_diagonal_inequalities),
        ("conformance", lambda run: check_conformance(run.sol, run.sens, run.iso)),
        ("block_scale_invariance", _pa_check_homogeneity),
    )
    return BenchmarkEntry(
        name="principal_agent", model=model, default_point=default_point,
        x0=x_star * 0.9,
        isovector_recipe=contract_rows,
        property_suite=suite,
        derived_matrices=lambda run: {
            "low_effort_wage_matrix": (low_effort_wage_matrix(run), "negative")},
        description="expected-cost-minimizing contract under hidden effort",
    )
