"""Utility maximization under several budget-type constraints, linear and
nonlinear, including consumer demand with market power."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..csm import build_omega, estimate_rank
from ..diagnostics import matrix_mismatch, min_eig_violation, report
from ..geometry import prescribe_isovectors
from ..model import ProblemModel
from .base import BenchRun, BenchmarkEntry, LinearBudget, constraint_fields
from .slutsky import compensation_rows, demand_model, substitution_matrix

# ---------------------------------------------------------------------------
# several linear budget constraints
# ---------------------------------------------------------------------------


def _budgets(m_dim: int, n_constraints: int) -> list:
    """Budget k: m_k - p_k.x = 0 over its block (p_k, m_k) of the parameters."""
    block = m_dim + 1                       # prices plus the budget level per block
    return [LinearBudget(n_constraints * block, slice(k * block, k * block + m_dim),
                         k * block + m_dim) for k in range(n_constraints)]


def multi_budget_model(gamma, n_constraints, name="multi_constraint_utility") -> ProblemModel:
    gamma = np.asarray(gamma, dtype=float)
    m_dim = gamma.size
    n_dim = n_constraints * (m_dim + 1)
    names = []
    for k in range(n_constraints):
        names += [f"p{k + 1}_{i + 1}" for i in range(m_dim)] + [f"m{k + 1}"]
    return ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=lambda x, a: (float("nan") if np.any(x <= 0)
                                else float(gamma @ np.log(x))),
        **constraint_fields(_budgets(m_dim, n_constraints)),
        grad_x_objective=lambda x, a: gamma / x,
        grad_a_objective=lambda x, a: np.zeros(n_dim),
        hess_xx_objective=lambda x, a: np.diag(-gamma / x**2),
        hess_xa_objective=lambda x, a: np.zeros((m_dim, n_dim)),
        parameter_names=tuple(names),
    )


def budget_rows(model: ProblemModel, sol, _sens=None):
    """One compensated block per constraint: unit price direction paired
    with the consumption level in the matching budget slot."""
    rows = np.vstack([b.rows(sol.x) for b in _budgets(model.M, model.K)])
    return prescribe_isovectors(rows, model.con_grad_a_stack(sol.x, sol.a))


def substitution_block(run: BenchRun, k: int) -> np.ndarray:
    """Compensated responses against the k-th budget block."""
    return _budgets(run.model.M, run.model.K)[k].substitution(run.sens.x_jac, run.sol.x)


def _mc_check_full_nsd(run):
    omega = build_omega(run.model, run.sol, run.sens, run.iso)
    return report("full_csm_semidefinite", "compensated-recipe-sign",
                  min_eig_violation(omega.matrix, "positive"), max(run.tol, 1e-7))


def _mc_check_blocks(run):
    omega = build_omega(run.model, run.sol, run.sens, run.iso)
    lam = run.sol.lam
    m_dim = run.model.M
    sigma1 = substitution_block(run, 0)
    worst = 0.0
    for i in range(run.model.K):
        for j in range(run.model.K):
            got = -omega.matrix[i * m_dim:(i + 1) * m_dim, j * m_dim:(j + 1) * m_dim]
            expected = (lam[i] * lam[j] / lam[0]) * sigma1
            worst = max(worst, matrix_mismatch(got, expected))
            worst = max(worst, matrix_mismatch(got, lam[i] * substitution_block(run, j)))
    return report("double_block_structure", "repeated-block-form", worst,
                  max(run.tol, 1e-6))


def _mc_check_annihilation(run):
    sigma1 = substitution_block(run, 0)
    m_dim = run.model.M
    block = m_dim + 1
    worst = 0.0
    for k in range(run.model.K):
        p_k = run.sol.a[k * block:k * block + m_dim]
        worst = max(worst, float(np.max(np.abs(p_k @ sigma1))))
    return report("price_annihilation", "budget-null-vectors", worst,
                  max(run.tol, 1e-6))


def _mc_check_rank(run):
    omega = build_omega(run.model, run.sol, run.sens, run.iso)
    m_dim, n_con = run.model.M, run.model.K
    rank_full = omega.rank_estimate
    rank_block = estimate_rank(substitution_block(run, 0))
    bound = m_dim - n_con
    ok = rank_full <= bound and rank_block <= bound
    return report("rank_bound", "rank-bound", 0.0 if ok else 1.0, 0.5,
                  rank_full=rank_full, rank_block=rank_block, bound=bound)


def _mc_check_offdiag_transpose(run):
    if run.model.K < 2:
        return report("offdiag_transpose", "cross-block-transpose", 0.0, 1.0,
                      note="single constraint; nothing to compare")
    lam = run.sol.lam
    lhs = lam[0] * substitution_block(run, 1)
    rhs = (lam[1] * substitution_block(run, 0)).T
    return report("offdiag_transpose", "cross-block-transpose",
                  matrix_mismatch(lhs, rhs), max(run.tol, 1e-6))


def _mc_check_k1_reduction(run):
    gamma = np.array([0.3, 0.2, 0.3, 0.2])
    single = register_multi_constraint_utility(1, gamma=gamma)
    sub = single.prepare(run.pipeline)
    sigma = substitution_block(sub, 0)
    reference = demand_model(gamma, name="_k1_reference")
    x_ref, _ = reference.analytic_solution(sub.sol.a)
    shares = gamma / gamma.sum()
    p, m = sub.sol.a[:gamma.size], sub.sol.a[gamma.size]
    expected = np.diag(-shares * m / p**2) + np.outer(shares / p, x_ref)
    res = matrix_mismatch(sigma, expected)
    res = max(res, float(np.max(np.abs(sub.sol.x - x_ref))))
    return report("k1_reduction", "single-constraint-specialization", res,
                  max(run.tol, 1e-6))


def _mc_check_multiplier_signs(run):
    res = float(np.max(np.maximum(-run.sol.lam, 0.0)))
    return report("multiplier_signs", "budget-shadow-price-signs", res,
                  max(run.tol, 1e-8), multipliers=run.sol.lam.tolist())


# default instance built backward from a target bundle so that both budget
# shadow prices are positive: gamma_i = x_i (lam1 p1_i + lam2 p2_i) at
# x = (0.3, 0.15, 0.35, 0.2), lam = (0.6, 0.4)
_MC_PRICES_1 = np.array([1.0, 1.2, 0.8, 1.0])
_MC_PRICES_2 = np.array([0.9, 1.4, 1.1, 0.7])
_MC_TARGET_X = np.array([0.3, 0.15, 0.35, 0.2])
_MC_TARGET_LAM = np.array([0.6, 0.4])
_MC_GAMMA = _MC_TARGET_X * (_MC_TARGET_LAM[0] * _MC_PRICES_1
                            + _MC_TARGET_LAM[1] * _MC_PRICES_2)


def multi_budget_oracle_point():
    """Exact solution and multipliers at the default two-constraint point."""
    return _MC_TARGET_X.copy(), _MC_TARGET_LAM.copy()


def register_multi_constraint_utility(n_constraints: int = 2,
                                      gamma=None) -> BenchmarkEntry:
    if gamma is None:
        gamma = _MC_GAMMA if n_constraints >= 2 else np.array([0.3, 0.2, 0.3, 0.2])
    gamma = np.asarray(gamma, dtype=float)
    m_dim = gamma.size
    model = multi_budget_model(gamma, n_constraints)
    if n_constraints == 1:
        default_point = np.append(_MC_PRICES_1[:m_dim], 1.0)
        x0 = np.full(m_dim, 0.25)
    else:
        default_point = np.concatenate([
            _MC_PRICES_1[:m_dim], [float(_MC_PRICES_1[:m_dim] @ _MC_TARGET_X[:m_dim])],
            _MC_PRICES_2[:m_dim], [float(_MC_PRICES_2[:m_dim] @ _MC_TARGET_X[:m_dim])],
        ])
        x0 = _MC_TARGET_X[:m_dim] * 0.9
    suite = (
        ("full_csm_semidefinite", _mc_check_full_nsd),
        ("double_block_structure", _mc_check_blocks),
        ("price_annihilation", _mc_check_annihilation),
        ("rank_bound", _mc_check_rank),
        ("offdiag_transpose", _mc_check_offdiag_transpose),
        ("multiplier_signs", _mc_check_multiplier_signs),
        ("k1_reduction", _mc_check_k1_reduction),
    )
    return BenchmarkEntry(
        name="multi_constraint_utility", model=model, default_point=default_point,
        x0=x0,
        isovector_recipe=budget_rows,
        property_suite=suite if n_constraints >= 2 else suite[:5],
        derived_matrices=lambda run: {
            "substitution_block_1": (substitution_block(run, 0), "negative")},
        description=f"log-additive utility under {n_constraints} budget constraints",
    )


# ---------------------------------------------------------------------------
# market power: nonlinear expenditure through inverse supply curves
# ---------------------------------------------------------------------------


def market_power_model(gamma, intercepts, slopes, name="market_power") -> ProblemModel:
    """max utility subject to m = sum_i x_i P_i(x_i + q_i) with linear
    inverse supply P_i(q) = intercepts_i + slopes_i q; parameters (q, m)."""
    gamma = np.asarray(gamma, dtype=float)
    c = np.asarray(intercepts, dtype=float)
    b = np.asarray(slopes, dtype=float)
    m_dim = gamma.size

    def expenditure(x, a):
        return float(x @ (c + b * (x + a[:m_dim])))

    return ProblemModel(
        name=name, M=m_dim, N=m_dim + 1,
        objective=lambda x, a: (float("nan") if np.any(x <= 0)
                                else float(gamma @ np.log(x))),
        **constraint_fields([(
            lambda x, a: float(a[m_dim] - expenditure(x, a)),
            lambda x, a: -(c + b * (x + a[:m_dim]) + b * x),
            lambda x, a: np.append(-b * x, 1.0),
            lambda x, a: np.diag(-2.0 * b),
            lambda x, a: np.hstack([np.diag(-b), np.zeros((m_dim, 1))]))]),
        grad_x_objective=lambda x, a: gamma / x,
        grad_a_objective=lambda x, a: np.zeros(m_dim + 1),
        hess_xx_objective=lambda x, a: np.diag(-gamma / x**2),
        hess_xa_objective=lambda x, a: np.zeros((m_dim, m_dim + 1)),
        parameter_names=tuple(f"q{i + 1}" for i in range(m_dim)) + ("m",),
        separable_kappa=(m_dim,),
    )


def market_rows(model: ProblemModel, sol, _sens=None):
    ga = model.con_grad_a_stack(sol.x, sol.a)
    m_dim = model.M
    rows = np.hstack([np.eye(m_dim), (-ga[0, :m_dim]).reshape(-1, 1)])
    return prescribe_isovectors(rows, ga)


def _market_pieces(run: BenchRun, slopes):
    """Realized prices and the market-price-coordinate derivative blocks."""
    b = np.asarray(slopes, dtype=float)
    m_dim = run.model.M
    x = run.sol.x
    q = run.sol.a[:m_dim]
    prices = run.model.con_grad_x_stack(x, run.sol.a)[0] * -1.0 - b * x  # P_i at the point
    x_q = run.sens.x_jac[:, :m_dim]
    x_m = run.sens.x_jac[:, m_dim]
    dp_dq = np.diag(b) @ (x_q + np.eye(m_dim))
    x_p = x_q @ scipy.linalg.inv(dp_dq)
    x_m_price = (np.eye(m_dim) - x_p @ np.diag(b)) @ x_m
    return prices, x_p, x_m_price


def consumption_g_matrix(run: BenchRun, slopes) -> np.ndarray:
    """Own-coordinate market-power substitution matrix (linear supply)."""
    b = np.asarray(slopes, dtype=float)
    m_dim = run.model.M
    x_q = run.sens.x_jac[:, :m_dim]
    x_m = run.sens.x_jac[:, m_dim]
    return x_q @ np.diag(1.0 / b) + np.outer(x_m, run.sol.x)


def price_coordinate_g(run: BenchRun, slopes) -> np.ndarray:
    """Market-price-coordinate form; defined in the perfect-competition
    limit as well, where it reduces to the plain substitution matrix."""
    b = np.asarray(slopes, dtype=float)
    prices, x_p, x_m_price = _market_pieces(run, slopes)
    sigma_p = x_p + np.outer(x_m_price, run.sol.x)
    j_mat = np.eye(run.model.M) - np.diag(b) @ x_p.T
    return sigma_p @ j_mat


def _mp_make_suite(gamma, intercepts, slopes):
    b = np.asarray(slopes, dtype=float)

    def check_g_nsd(run):
        omega = build_omega(run.model, run.sol, run.sens, run.iso)
        theta = -omega.matrix / run.sol.lam[0]
        g_mat = np.diag(1.0 / b) @ theta @ np.diag(1.0 / b)
        g_direct = consumption_g_matrix(run, b)
        res = matrix_mismatch(g_mat, g_direct)
        res = max(res, min_eig_violation(g_mat, "negative"))
        rank = estimate_rank(g_mat)
        ok = rank <= run.model.M - 1
        return report("g_matrix_nsd", "market-power-substitution-sign",
                      res if ok else max(res, 1.0), max(run.tol, 1e-6), rank=rank)

    def check_g_price_structure(run):
        g_tilde = price_coordinate_g(run, b)
        prices, _, _ = _market_pieces(run, b)
        scale = max(1.0, float(np.max(np.abs(g_tilde))))
        res = float(np.max(np.abs(g_tilde - g_tilde.T))) / scale
        res = max(res, float(np.max(np.abs(g_tilde @ prices))) / scale)
        res = max(res, float(np.max(np.abs(prices @ g_tilde))) / scale)
        return report("price_coordinate_structure", "modified-substitution-nulls",
                      res, max(run.tol, 1e-5))

    def check_elasticity_form(run):
        prices, x_p, x_m_price = _market_pieces(run, b)
        sigma_p = x_p + np.outer(x_m_price, run.sol.x)
        correction = sigma_p @ np.diag(b) @ x_p.T
        x = run.sol.x
        q = run.sol.a[:run.model.M]
        m_dim = run.model.M
        elastic = np.zeros((m_dim, m_dim))
        for alpha in range(m_dim):
            for beta in range(m_dim):
                acc = 0.0
                for g in range(m_dim):
                    dem = (prices[g] / x[beta]) * x_p[beta, g]
                    sup = prices[g] / ((x[g] + q[g]) * b[g])
                    acc += (sigma_p[alpha, g] * (x[g] / (x[g] + q[g]))
                            * (x[beta] / x[g]) * dem / sup)
                elastic[alpha, beta] = acc
        return report("elasticity_form", "market-share-scaling",
                      matrix_mismatch(correction, elastic), max(run.tol, 1e-6))

    def check_modified_euler(run):
        prices, x_p, x_m_price = _market_pieces(run, b)
        x = run.sol.x
        m_val = run.sol.a[run.model.M]
        p_mod = prices + b * x
        m_mod = m_val + x**2 @ b
        residual = m_mod * x_m_price + x_p @ p_mod
        scale = max(1.0, float(np.max(np.abs(x))))
        return report("modified_euler", "price-impact-euler",
                      float(np.max(np.abs(residual))) / scale, max(run.tol, 1e-5))

    def check_competitive_limit(run):
        reference = demand_model(gamma, name="_limit_reference")
        a_ref = np.append(np.asarray(intercepts, dtype=float),
                          run.sol.a[run.model.M])
        ref_entry = BenchmarkEntry(
            name="_limit", model=reference, default_point=a_ref,
            x0=reference.analytic_solution(a_ref)[0],
            isovector_recipe=compensation_rows)
        sigma_limit = substitution_matrix(ref_entry.prepare("analytic"))
        m_dim = run.model.M
        errors = []
        for t in (0.5, 0.1, 0.02):
            scaled = register_market_power(gamma, intercepts, b * t,
                                           q_bar=run.sol.a[:m_dim],
                                           income=run.sol.a[m_dim])
            sub = scaled.prepare("numeric")
            g_t = price_coordinate_g(sub, b * t)
            errors.append(float(np.max(np.abs(g_t - sigma_limit))))
        decreasing = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        res = errors[-1] / max(1.0, float(np.max(np.abs(sigma_limit))))
        return report("competitive_limit", "vanishing-price-impact-limit",
                      res if decreasing else max(res, 1.0), 2e-2, errors=errors)

    return (
        ("g_matrix_nsd", check_g_nsd),
        ("price_coordinate_structure", check_g_price_structure),
        ("elasticity_form", check_elasticity_form),
        ("modified_euler", check_modified_euler),
        ("competitive_limit", check_competitive_limit),
    )


def register_market_power(gamma=(0.5, 0.3, 0.2), intercepts=(1.0, 0.8, 1.2),
                          slopes=(0.10, 0.05, 0.20), q_bar=(1.0, 1.0, 1.0),
                          income=1.0) -> BenchmarkEntry:
    gamma = np.asarray(gamma, dtype=float)
    model = market_power_model(gamma, intercepts, slopes)
    default_point = np.append(np.asarray(q_bar, dtype=float), income)
    shares = gamma / gamma.sum()
    x0 = shares * income / np.asarray(intercepts, dtype=float)
    slope_arr = np.asarray(slopes, dtype=float)
    return BenchmarkEntry(
        name="market_power", model=model, default_point=default_point,
        x0=x0,
        isovector_recipe=market_rows,
        property_suite=_mp_make_suite(gamma, np.asarray(intercepts, float),
                                      slope_arr),
        derived_matrices=lambda run: {
            "price_impact_substitution": (consumption_g_matrix(run, slope_arr),
                                          "negative")},
        description="consumer demand with price impact through inverse supply",
    )
