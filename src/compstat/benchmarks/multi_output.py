"""Multi-output profit maximization, unconstrained and cost-constrained.

Technology: G concave quadratic outputs F_r(x) = c_r.x - x'A_r x / 2 with
positive definite A_r, chosen so that every Jacobian the suites need has a
closed form through the aggregate curvature S = sum_r p_r A_r.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..csm import build_omega_a2
from ..diagnostics import (IDENTITY_TOL, ROUNDING_TOL, check_invariance, matrix_mismatch,
                           min_eig_violation, report)
from ..errors import DomainError
from ..geometry import prescribe_isovectors
from ..model import InvarianceGenerator, ProblemModel
from ..numeric import max_abs, spd_solve
from .base import BenchRun, BenchmarkEntry, LinearBudget, constraint_fields

NEGATIVE = "negative_semidefinite_expected"
COND_CAP = 1e12           # condition number above which an inner block counts as singular


def _default_technology():
    c_list = [np.array([2.0, 1.0, 1.0]), np.array([1.0, 2.0, 1.0])]
    a_list = [
        np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.2]]),
        np.diag([1.5, 1.0, 2.0]),
    ]
    return c_list, a_list


def _tech_functions(c_list, a_list):
    def outputs(x):
        return np.array([c @ x - 0.5 * x @ (A @ x) for c, A in zip(c_list, a_list)])

    def output_grads(x):
        return np.column_stack([c - A @ x for c, A in zip(c_list, a_list)])  # M x G

    return outputs, output_grads


def multi_output_model(c_list=None, a_list=None, name="multi_output_profit") -> ProblemModel:
    if c_list is None:
        c_list, a_list = _default_technology()
    c_list = [np.asarray(c, dtype=float) for c in c_list]
    a_list = [np.asarray(A, dtype=float) for A in a_list]
    m_dim, g_dim = c_list[0].size, len(c_list)
    outputs, output_grads = _tech_functions(c_list, a_list)

    def curvature(p):
        return sum(p[r] * a_list[r] for r in range(g_dim))

    def solution(a):
        w, p = a[:m_dim], a[m_dim:]
        rhs = sum(p[r] * c_list[r] for r in range(g_dim)) - w
        try:
            return spd_solve(curvature(p), rhs), np.zeros(0)
        except np.linalg.LinAlgError as exc:
            raise DomainError("the technology curvature sum_r p_r A_r is not positive "
                              f"definite at p = {p.tolist()}") from exc

    def x_jac(a):
        w, p = a[:m_dim], a[m_dim:]
        s_inv = scipy.linalg.inv(curvature(p))
        x = s_inv @ (sum(p[r] * c_list[r] for r in range(g_dim)) - w)
        return np.hstack([-s_inv, s_inv @ output_grads(x)])

    homogeneity = InvarianceGenerator(
        name="price_scale",
        X_map=lambda x: np.zeros(m_dim),
        A_map=lambda a: a,
    )
    model = ProblemModel(
        name=name, M=m_dim, N=m_dim + g_dim,
        objective=lambda x, a: float(a[m_dim:] @ outputs(x) - a[:m_dim] @ x),
        grad_x_objective=lambda x, a: output_grads(x) @ a[m_dim:] - a[:m_dim],
        grad_a_objective=lambda x, a: np.concatenate([-x, outputs(x)]),
        hess_xx_objective=lambda x, a: -curvature(a[m_dim:]),
        hess_xa_objective=lambda x, a: np.hstack([-np.eye(m_dim), output_grads(x)]),
        analytic_solution=solution,
        parameter_names=(tuple(f"w{i + 1}" for i in range(m_dim))
                         + tuple(f"p{r + 1}" for r in range(g_dim))),
        invariance_generators=(homogeneity,),
    )
    return model, x_jac, (c_list, a_list)


def io_blocks(run: BenchRun, output_grads):
    """(W, M, Q, P): input and output responses to both price groups."""
    m_dim = run.model.M
    grads = output_grads(run.sol.x)             # M x G
    w_block = run.sens.x_jac[:, :m_dim]
    m_block = run.sens.x_jac[:, m_dim:]
    q_block = grads.T @ w_block
    p_block = grads.T @ m_block
    return w_block, m_block, q_block, p_block


def io_response_block(run: BenchRun, output_grads) -> np.ndarray:
    """[[-W, -M], [Q, P]]: the io_blocks as one positive semidefinite matrix."""
    w_block, m_block, q_block, p_block = io_blocks(run, output_grads)
    return np.block([[-w_block, -m_block], [q_block, p_block]])


def sharpened_pair(w_block, m_block, p_block):
    """Sharpened input/output bounds; None for a singular inner block, in
    which case callers record the caveat and skip."""
    if (np.linalg.cond(p_block) > COND_CAP) or (np.linalg.cond(w_block) > COND_CAP):
        return None, None
    w_star = w_block + m_block @ scipy.linalg.solve(p_block, m_block.T)
    p_star = p_block + m_block.T @ scipy.linalg.solve(w_block, m_block)
    return w_star, p_star


def _make_suite(output_grads):
    def check_block_matrix(run):
        a2 = build_omega_a2(run.model, run.sol, run.sens)
        return report("block_matrix_a2", "io-block-recipe",
                      matrix_mismatch(a2.matrix, io_response_block(run, output_grads)),
                      IDENTITY_TOL)

    def check_block_symmetry(run):
        _, m_block, q_block, _ = io_blocks(run, output_grads)
        return report("block_symmetry", "cross-block-transpose",
                      matrix_mismatch(-q_block.T, m_block), IDENTITY_TOL)

    def check_sharpened_pair(run):
        w_block, m_block, _, p_block = io_blocks(run, output_grads)
        w_star, p_star = sharpened_pair(w_block, m_block, p_block)
        if w_star is None:
            return report("sharpened_pair", "optimal-io-bounds", 1.0, 0.5,
                          caveat="singular inner block; sharpening skipped")
        res = max(min_eig_violation(w_star, "negative"),
                  min_eig_violation(p_star, "positive"))
        res = max(res, min_eig_violation(w_star - w_block, "positive"))
        return report("sharpened_pair", "optimal-io-bounds", res, IDENTITY_TOL)

    return (
        ("block_matrix_a2", check_block_matrix),
        ("block_symmetry", check_block_symmetry),
        ("sharpened_pair", check_sharpened_pair),
    )


def register_multi_output_profit() -> BenchmarkEntry:
    model, x_jac, (c_list, a_list) = multi_output_model()
    _, output_grads = _tech_functions(c_list, a_list)
    default_point = np.array([0.5, 0.5, 0.5, 1.0, 0.8])

    def derived(run: BenchRun) -> dict:
        return {"io_response_block": (io_response_block(run, output_grads), "positive")}

    return BenchmarkEntry(
        name="multi_output_profit", model=model, default_point=default_point,
        x0=model.analytic_solution(default_point)[0] * 0.9,
        isovector_recipe=lambda m, sol, sens: prescribe_isovectors(
            np.eye(m.N), np.zeros((0, m.N))),
        property_suite=_make_suite(output_grads),
        analytic_x_jac=x_jac,
        derived_matrices=derived,
        description="multi-output profit maximization with quadratic technology",
    )


def singular_output_instance():
    """Duplicate outputs make the output-response block singular, so the
    sharpening inverse path must be skipped."""
    c = np.array([2.0, 1.0, 1.0])
    A = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.2]])
    model, x_jac, (c_list, a_list) = multi_output_model(
        [c, c], [A, A], name="multi_output_singular")
    _, output_grads = _tech_functions(c_list, a_list)
    point = np.array([0.5, 0.4, 0.6, 1.0, 1.0])
    return model, output_grads, point


# ---------------------------------------------------------------------------
# cost-constrained variant
# ---------------------------------------------------------------------------


def _expenditure_cap(m_dim: int, g_dim: int) -> LinearBudget:
    """The cap C - w.x = 0 over the parameters (w, p, C, s)."""
    return LinearBudget(m_dim + g_dim + 2, slice(0, m_dim), m_dim + g_dim)


def cost_constrained_model(c_list=None, a_list=None,
                           name="cost_constrained_profit"):
    """max s * p.F(x) subject to the expenditure cap w.x = C.

    The revenue objective is the cost-substituted form of profit (the
    expenditure term is pinned by the constraint), which is what gives the
    model its consumer-demand structure.  Parameters: (w, p, C, s).
    """
    if c_list is None:
        c_list, a_list = _default_technology()
    c_list = [np.asarray(c, dtype=float) for c in c_list]
    a_list = [np.asarray(A, dtype=float) for A in a_list]
    m_dim, g_dim = c_list[0].size, len(c_list)
    outputs, output_grads = _tech_functions(c_list, a_list)
    n_dim = m_dim + g_dim + 2
    iC, iS = m_dim + g_dim, m_dim + g_dim + 1

    def curvature(p):
        return sum(p[r] * a_list[r] for r in range(g_dim))

    def solution(a):
        w, p, C, s = a[:m_dim], a[m_dim:iC], a[iC], a[iS]
        S_inv = scipy.linalg.inv(curvature(p))
        u = sum(p[r] * c_list[r] for r in range(g_dim))
        theta = (w @ S_inv @ u - C) / (w @ S_inv @ w)
        x = S_inv @ (u - theta * w)
        return x, np.array([s * theta])

    out_homog = InvarianceGenerator(
        name="output_price_scale",
        X_map=lambda x: np.zeros(m_dim),
        A_map=lambda a: np.concatenate(
            [np.zeros(m_dim), a[m_dim:iC], [0.0, 0.0]]),
    )
    cost_homog = InvarianceGenerator(
        name="input_price_cost_scale",
        X_map=lambda x: np.zeros(m_dim),
        A_map=lambda a: np.concatenate(
            [a[:m_dim], np.zeros(g_dim), [a[iC], 0.0]]),
    )
    model = ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=lambda x, a: float(a[iS] * (a[m_dim:iC] @ outputs(x))),
        **constraint_fields([_expenditure_cap(m_dim, g_dim)]),
        grad_x_objective=lambda x, a: a[iS] * (output_grads(x) @ a[m_dim:iC]),
        grad_a_objective=lambda x, a: np.concatenate(
            [np.zeros(m_dim), a[iS] * outputs(x), [0.0, a[m_dim:iC] @ outputs(x)]]),
        hess_xx_objective=lambda x, a: -a[iS] * curvature(a[m_dim:iC]),
        hess_xa_objective=lambda x, a: np.hstack([
            np.zeros((m_dim, m_dim)), a[iS] * output_grads(x),
            np.zeros((m_dim, 1)),
            (output_grads(x) @ a[m_dim:iC]).reshape(-1, 1)]),
        analytic_solution=solution,
        parameter_names=(tuple(f"w{i + 1}" for i in range(m_dim))
                         + tuple(f"p{r + 1}" for r in range(g_dim)) + ("C", "s")),
        invariance_generators=(out_homog, cost_homog),
        separable_kappa=(iC,),
    )
    return model, output_grads


def cost_rows(model: ProblemModel, sol, _sens=None):
    """Expenditure compensation for input prices, scale compensation for
    output prices; every row annihilates the constraint and (at unit scale)
    the revenue objective."""
    m_dim = model.M
    g_dim = model.N - m_dim - 2
    iC, iS = m_dim + g_dim, m_dim + g_dim + 1
    grads = sol.blocks.fa
    revenue = grads[iS]                      # p.F at the solution
    output_rows = np.eye(g_dim, model.N, k=m_dim)
    output_rows[:, iS] = -grads[m_dim:iC] / (sol.a[iS] * revenue)
    rows = np.vstack([_expenditure_cap(m_dim, g_dim).rows(sol.x), output_rows])
    stack = np.vstack([sol.blocks.Ga, grads])
    return prescribe_isovectors(rows, stack, annihilates_objective=True)


def _cost_blocks(run: BenchRun, output_grads):
    """The io_blocks (W, M, Q, P) with both input-price blocks compensated
    through the cap C: (W + xC x^T, M, Q + fC x^T, P), fC = dF/dC."""
    m_dim = run.model.M
    g_dim = run.model.N - m_dim - 2
    iC = m_dim + g_dim
    grads = output_grads(run.sol.x)
    jac = run.sens.x_jac
    m_block = jac[:, m_dim:iC]
    q_block = grads.T @ jac[:, :m_dim]
    p_block = grads.T @ m_block
    fC = grads.T @ jac[:, iC]
    compensated = _expenditure_cap(m_dim, g_dim).substitution(jac, run.sol.x)
    return compensated, m_block, q_block + np.outer(fC, run.sol.x), p_block


def _make_cost_suite(output_grads):
    def eq_blocks(run):
        lam = run.sol.lam[0]
        w_comp, m_block, q_comp, p_block = _cost_blocks(run, output_grads)
        return np.block([[-lam * w_comp, -lam * m_block], [q_comp, p_block]])

    def check_block_csm(run):
        return report("expenditure_block_csm", "cost-compensated-recipe",
                      matrix_mismatch(run.omega_eq7.matrix, eq_blocks(run)), IDENTITY_TOL)

    def check_multiplier_positive(run):
        lam = float(run.sol.lam[0])
        return report("multiplier_positive", "expenditure-shadow-price-sign",
                      max(0.0, -lam), ROUNDING_TOL, lam=lam)

    def check_cross_equality(run):
        lam = run.sol.lam[0]
        _, m_block, q_comp, _ = _cost_blocks(run, output_grads)
        lhs = lam * m_block
        rhs = -q_comp.T
        return report("cross_equality", "input-output-reciprocity",
                      matrix_mismatch(lhs, rhs), IDENTITY_TOL)

    def check_single_output_price_independence(run):
        model1, grads1 = cost_constrained_model(
            [np.array([2.0, 1.0, 1.0])],
            [np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.2]])],
            name="cost_constrained_g1")
        point = np.array([0.5, 0.4, 0.6, 1.0, 1.0, 1.0])
        entry = BenchmarkEntry(
            name="cost_constrained_g1", model=model1, default_point=point,
            x0=model1.analytic_solution(point)[0],
            isovector_recipe=cost_rows)
        sub = entry.prepare(run.pipeline)
        m_dim = model1.M
        res = max_abs(sub.sens.x_jac[:, m_dim])
        rep = check_invariance(model1, model1.invariance_generators[0],
                               sub.sol, sub.sens, tol=1e-6)
        return report("single_output_price_independence", "output-price-neutrality",
                      max(res, rep.residual), 1e-6)

    return (
        ("expenditure_block_csm", check_block_csm),
        ("multiplier_positive", check_multiplier_positive),
        ("cross_equality", check_cross_equality),
        ("single_output_price_independence", check_single_output_price_independence),
    )


def register_cost_constrained_profit() -> BenchmarkEntry:
    model, output_grads = cost_constrained_model()
    default_point = np.array([0.5, 0.5, 0.5, 1.0, 0.8, 1.2, 1.0])
    x_start, lam_start = model.analytic_solution(default_point)

    def derived(run: BenchRun) -> dict:
        w_comp, _, _, p_block = _cost_blocks(run, output_grads)
        return {"expenditure_substitution": (-w_comp, "positive"),
                "output_price_block": (p_block, "positive")}

    return BenchmarkEntry(
        name="cost_constrained_profit", model=model, default_point=default_point,
        x0=x_start * 0.9,
        isovector_recipe=cost_rows,
        property_suite=_make_cost_suite(output_grads),
        derived_matrices=derived,
        description="multi-output profit maximization under an expenditure cap",
    )
