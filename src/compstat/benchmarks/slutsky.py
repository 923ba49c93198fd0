"""Log-additive consumer demand under one linear budget constraint.

Demand has the closed form x_i = (g_i) m / p_i with g the normalized
taste weights, so every derivative used by the suite has a hand oracle.
"""

from __future__ import annotations

import numpy as np

from ..csm import build_omega, estimate_rank
from ..diagnostics import (ROUNDING_TOL, check_invariance, matrix_mismatch,
                           min_eig_violation, report, spectrum_violation)
from ..errors import DomainError
from ..geometry import prescribe_isovectors
from ..model import InvarianceGenerator, ProblemModel
from .base import BenchRun, BenchmarkEntry, LinearBudget, constraint_fields


def _budget(m_dim: int) -> LinearBudget:
    """The budget m - p.x = 0 over the parameters (p, m)."""
    return LinearBudget(m_dim + 1, slice(0, m_dim), m_dim)


def demand_model(gamma, name="slutsky_hicks") -> ProblemModel:
    gamma = np.asarray(gamma, dtype=float)
    m_dim = gamma.size
    shares = gamma / gamma.sum()

    def utility(x, a):
        if np.any(x <= 0):
            return float("nan")
        return float(gamma @ np.log(x))

    def solution(a):
        p, m = a[:m_dim], a[m_dim]
        if np.count_nonzero(p) < m_dim or m == 0:
            raise DomainError("demand needs nonzero prices and income; got "
                              f"p = {p.tolist()}, m = {float(m)!r}")
        return shares * m / p, np.array([gamma.sum() / m])

    homogeneity = InvarianceGenerator(
        name="price_income_scale",
        X_map=lambda x: np.zeros(m_dim),
        A_map=lambda a: a,
    )
    return ProblemModel(
        name=name, M=m_dim, N=m_dim + 1,
        objective=utility, **constraint_fields([_budget(m_dim)]),
        grad_x_objective=lambda x, a: gamma / x,
        grad_a_objective=lambda x, a: np.zeros(m_dim + 1),
        hess_xx_objective=lambda x, a: np.diag(-gamma / x**2),
        hess_xa_objective=lambda x, a: np.zeros((m_dim, m_dim + 1)),
        analytic_solution=solution,
        parameter_names=tuple(f"p{i + 1}" for i in range(m_dim)) + ("m",),
        invariance_generators=(homogeneity,),
        separable_kappa=(m_dim,),
    )


def demand_jacobian(gamma):
    gamma = np.asarray(gamma, dtype=float)
    shares = gamma / gamma.sum()

    def x_jac(a):
        m_dim = gamma.size
        p, m = a[:m_dim], a[m_dim]
        jac = np.zeros((m_dim, m_dim + 1))
        jac[np.arange(m_dim), np.arange(m_dim)] = -shares * m / p**2
        jac[:, m_dim] = shares / p
        return jac

    def lam_jac(a):
        m_dim = gamma.size
        out = np.zeros((1, m_dim + 1))
        out[0, m_dim] = -gamma.sum() / a[m_dim] ** 2
        return out

    return x_jac, lam_jac


def compensation_rows(model: ProblemModel, sol, sens):
    return prescribe_isovectors(_budget(model.M).rows(sol.x), sol.blocks.Ga)


def substitution_matrix(run: BenchRun) -> np.ndarray:
    """Compensated price responses dx_mu/dp_nu + x_nu dx_mu/dm."""
    return _budget(run.model.M).substitution(run.sens.x_jac, run.sol.x)


def _check_sigma_closed_form(run: BenchRun):
    sigma = substitution_matrix(run)
    m_dim = run.model.M
    p, m = run.sol.a[:m_dim], run.sol.a[m_dim]
    shares = run.sol.x * p / m
    expected = np.diag(-shares * m / p**2) + np.outer(shares / p, run.sol.x)
    return report("sigma_closed_form", "substitution-matrix-value",
                  matrix_mismatch(sigma, expected), ROUNDING_TOL)


def _check_sigma_semidefinite(run: BenchRun):
    sigma = substitution_matrix(run)
    eig = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    return report("sigma_negative_semidefinite", "negative-semidefinite",
                  spectrum_violation(eig, "negative"), ROUNDING_TOL,
                  eigenvalues=eig.tolist())


def _check_sigma_symmetry(run: BenchRun):
    sigma = substitution_matrix(run)
    return report("sigma_symmetric", "symmetry", matrix_mismatch(sigma.T, sigma), ROUNDING_TOL)


def _check_price_null_vector(run: BenchRun):
    sigma = substitution_matrix(run)
    p = run.sol.a[:run.model.M]
    return report("sigma_price_null", "budget-null-vector",
                  float(np.max(np.abs(sigma @ p))), ROUNDING_TOL)


def _check_rank(run: BenchRun):
    sigma = substitution_matrix(run)
    rank = estimate_rank(sigma)
    return report("sigma_rank", "rank-bound", float(rank), float(run.model.M - 1),
                  rank=rank)


def _check_omega_relation(run: BenchRun):
    """Main recipe equals -(multiplier) times the substitution matrix."""
    omega = build_omega(run.model, run.sol, run.sens, run.iso)
    expected = -run.sol.lam[0] * substitution_matrix(run)
    return report("omega_is_scaled_sigma", "recipe-vs-substitution",
                  matrix_mismatch(omega.matrix, expected), ROUNDING_TOL)


def _check_homogeneity(run: BenchRun):
    gen = run.model.invariance_generators[0]
    # the identity sums the Jacobian over all N parameters
    rep = check_invariance(run.model, gen, run.sol, run.sens, tol=10 * ROUNDING_TOL)
    return rep


def reduced_substitution(run: BenchRun) -> np.ndarray:
    """Substitution information re-expressed in income-scaled prices.

    Uses the degree-zero homogeneity of demand: the derivative with respect
    to the scaled price p/m is m times the plain price derivative.
    """
    m_dim = run.model.M
    p, m = run.sol.a[:m_dim], run.sol.a[m_dim]
    x = run.sol.x
    p_tilde = p / m
    b_mid = m * run.sens.x_jac[:, :m_dim].T            # entry (tau, rho) = dx_rho/dp~_tau
    left = np.eye(m_dim) - np.outer(x, p_tilde)
    right = np.eye(m_dim) - np.outer(p_tilde, x)
    return left @ b_mid @ right


def _check_reduced_form(run: BenchRun):
    sigma_tilde = reduced_substitution(run)
    m = run.sol.a[run.model.M]
    expected = m * substitution_matrix(run)
    res = matrix_mismatch(sigma_tilde, expected)
    p_tilde = run.sol.a[:run.model.M] / m
    res = max(res, float(np.max(np.abs(sigma_tilde @ p_tilde))))
    res = max(res, min_eig_violation(sigma_tilde, "negative"))
    return report("reduced_form_equivalent", "income-scaled-reduction", res, ROUNDING_TOL)


def _check_drop_reconstruct(run: BenchRun):
    """Dropping the last row and column loses nothing: the full matrix is
    rebuilt from the leading block through the null vector."""
    sigma_tilde = reduced_substitution(run)
    m_dim = run.model.M
    p_tilde = run.sol.a[:m_dim] / run.sol.a[m_dim]
    lead = sigma_tilde[:m_dim - 1, :m_dim - 1]
    rebuilt = np.zeros_like(sigma_tilde)
    rebuilt[:m_dim - 1, :m_dim - 1] = lead
    rebuilt[:m_dim - 1, m_dim - 1] = -lead @ p_tilde[:m_dim - 1] / p_tilde[m_dim - 1]
    rebuilt[m_dim - 1, :] = -p_tilde[:m_dim - 1] @ rebuilt[:m_dim - 1, :] / p_tilde[m_dim - 1]
    return report("drop_last_reconstruct", "redundant-row-reconstruction",
                  matrix_mismatch(rebuilt, sigma_tilde), ROUNDING_TOL)


def derived_matrices(run: BenchRun) -> dict:
    return {"substitution": (substitution_matrix(run), "negative")}


def register_slutsky_hicks(gamma=(0.5, 0.5), default_point=(1.0, 1.0, 1.0)) -> BenchmarkEntry:
    gamma = np.asarray(gamma, dtype=float)
    model = demand_model(gamma)
    x_jac, lam_jac = demand_jacobian(gamma)
    suite = (
        ("sigma_closed_form", _check_sigma_closed_form),
        ("sigma_negative_semidefinite", _check_sigma_semidefinite),
        ("sigma_symmetric", _check_sigma_symmetry),
        ("sigma_price_null", _check_price_null_vector),
        ("sigma_rank", _check_rank),
        ("omega_is_scaled_sigma", _check_omega_relation),
        ("homogeneity", _check_homogeneity),
        ("reduced_form_equivalent", _check_reduced_form),
        ("drop_last_reconstruct", _check_drop_reconstruct),
    )
    default_point = np.asarray(default_point, dtype=float)
    return BenchmarkEntry(
        name="slutsky_hicks", model=model,
        default_point=default_point,
        x0=np.full(gamma.size, default_point[gamma.size] / gamma.size),
        isovector_recipe=compensation_rows,
        property_suite=suite,
        analytic_x_jac=x_jac, analytic_lam_jac=lam_jac,
        derived_matrices=derived_matrices,
        description="log-additive demand under one linear budget constraint",
    )
