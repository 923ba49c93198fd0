"""Minimum-variance portfolio selection at a prescribed expected return.

The catalog entry works in uncorrelated coordinates: eigenvectors of the
covariance matrix define standard asset mixes whose variances are the
eigenvalues, and the budget/return loadings transform alongside.  A
companion model in the original asset coordinates backs the consistency
checks.  Zero-variance mixes behave like riskless assets and are excluded
from the data before registration.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..csm import estimate_rank
from ..diagnostics import IDENTITY_TOL, matrix_mismatch, min_eig_violation, report
from ..errors import DomainError
from ..geometry import prescribe_isovectors
from ..model import InvarianceGenerator, ProblemModel
from ..numeric import max_abs, spd_solve
from ..sensitivity import decision_jacobian_ift
from ..solver import newton_solve
from .base import BenchRun, BenchmarkEntry, LinearBudget, constraint_fields


RISKLESS_TOL = 1e-12      # variance, relative to the largest, of an excluded riskless mix


def principal_data(sigma: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Eigen-coordinates of the covariance: variances, mix loadings, and the
    indices of excluded zero-variance (riskless) mixes."""
    sigma = np.asarray(sigma, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    variances, vectors = np.linalg.eigh(0.5 * (sigma + sigma.T))
    scale = max(float(variances[-1]), 1.0)
    keep = variances > RISKLESS_TOL * scale
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])
    vectors = vectors[:, keep]
    # orient each mix to carry a nonnegative budget weight
    signs = np.where(vectors.T @ w < 0, -1.0, 1.0)
    vectors = vectors * signs
    return variances[keep], vectors, vectors.T @ w, vectors.T @ r, dropped


def portfolio_solution(sigma2, weights, returns, total, target):
    """Closed-form allocation and multipliers of the uncorrelated problem."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.min() <= 0:
        raise DomainError("the closed form needs positive mix variances; "
                          f"got {sigma2.tolist()}")
    sig = np.sqrt(sigma2)
    w_bar = np.asarray(weights, dtype=float) / sig
    r_bar = np.asarray(returns, dtype=float) / sig
    ww, rr, wr = w_bar @ w_bar, r_bar @ r_bar, w_bar @ r_bar
    det = ww * rr - wr**2
    mismatch = total * r_bar - target * w_bar
    nu1 = 2.0 * (r_bar @ mismatch) / det
    nu2 = -2.0 * (w_bar @ mismatch) / det
    allocation = (nu1 * w_bar + nu2 * r_bar) / (2.0 * sig)
    return allocation, np.array([nu1, nu2])


def portfolio_variance(sigma2, weights, returns, total, target) -> float:
    sigma2 = np.asarray(sigma2, dtype=float)
    sig = np.sqrt(sigma2)
    w_bar = np.asarray(weights, dtype=float) / sig
    r_bar = np.asarray(returns, dtype=float) / sig
    mismatch = total * r_bar - target * w_bar
    det = (w_bar @ w_bar) * (r_bar @ r_bar) - (w_bar @ r_bar) ** 2
    return float(mismatch @ mismatch / det)


def variance_minimum(sigma2, weights, returns, total):
    """Target return minimizing the optimal variance, and that minimum."""
    sig = np.sqrt(np.asarray(sigma2, dtype=float))
    w_bar = np.asarray(weights, dtype=float) / sig
    r_bar = np.asarray(returns, dtype=float) / sig
    best_target = total * (w_bar @ r_bar) / (w_bar @ w_bar)
    return best_target, float(total**2 / (w_bar @ w_bar))


def _principal_budgets(m_dim: int):
    """Budget Wt - W.x = 0 and return target Rt - R.x = 0 of principal_model."""
    n_dim = 3 * m_dim + 2
    return (LinearBudget(n_dim, slice(m_dim, 2 * m_dim), 3 * m_dim),
            LinearBudget(n_dim, slice(2 * m_dim, 3 * m_dim), 3 * m_dim + 1))


def _original_budgets(m_dim: int):
    """The same two constraints of original_model, over (w, Wt, r, Rt)."""
    n_dim = 2 * m_dim + 2
    return (LinearBudget(n_dim, slice(0, m_dim), m_dim),
            LinearBudget(n_dim, slice(m_dim + 1, 2 * m_dim + 1), 2 * m_dim + 1))


def principal_model(m_dim: int, name="efficient_portfolio") -> ProblemModel:
    """Variance minimization over uncorrelated mixes; all data are
    parameters: (variances, weights, returns, total, target)."""
    n_dim = 3 * m_dim + 2
    iT, iR = 3 * m_dim, 3 * m_dim + 1

    def sig2(a):
        return a[:m_dim]

    def wvec(a):
        return a[m_dim:2 * m_dim]

    def rvec(a):
        return a[2 * m_dim:3 * m_dim]

    def solution(a):
        x, nu = portfolio_solution(sig2(a), wvec(a), rvec(a), a[iT], a[iR])
        return x, -nu

    def grad_a_objective(x, a):
        out = np.zeros(n_dim)
        out[:m_dim] = -x**2
        return out

    def hess_xa_objective(x, a):
        out = np.zeros((m_dim, n_dim))
        out[:, :m_dim] = np.diag(-2.0 * x)
        return out

    def scale_gen(name_suffix, slots):
        def a_map(a):
            out = np.zeros(n_dim)
            for s in slots:
                out[s] = a[s]
            return out
        return InvarianceGenerator(
            name=f"scale_{name_suffix}",
            X_map=lambda x: np.zeros(m_dim),
            A_map=a_map,
        )

    gens = (
        scale_gen("variances", tuple(range(m_dim))),
        scale_gen("budget", tuple(range(m_dim, 2 * m_dim)) + (iT,)),
        scale_gen("returns", tuple(range(2 * m_dim, 3 * m_dim)) + (iR,)),
    )
    names = (tuple(f"s2_{i + 1}" for i in range(m_dim))
             + tuple(f"W{i + 1}" for i in range(m_dim))
             + tuple(f"R{i + 1}" for i in range(m_dim)) + ("Wt", "Rt"))
    return ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=lambda x, a: float(-(sig2(a) @ x**2)),
        **constraint_fields(_principal_budgets(m_dim)),
        grad_x_objective=lambda x, a: -2.0 * sig2(a) * x,
        grad_a_objective=grad_a_objective,
        hess_xx_objective=lambda x, a: np.diag(-2.0 * sig2(a)),
        hess_xa_objective=hess_xa_objective,
        analytic_solution=solution,
        parameter_names=names,
        invariance_generators=gens,
        separable_kappa=(iT, iR),
    )


def original_model(sigma: np.ndarray, name="portfolio_original") -> ProblemModel:
    """Same problem over the raw assets; the covariance is fixed data and the
    parameters are (w, total, r, target)."""
    sigma = np.asarray(sigma, dtype=float)
    m_dim = sigma.shape[0]
    n_dim = 2 * m_dim + 2
    iT, iR = m_dim, 2 * m_dim + 1

    def wvec(a):
        return a[:m_dim]

    def rvec(a):
        return a[m_dim + 1:2 * m_dim + 1]

    def solution(a):
        gram = np.empty((2, 2))
        s_inv_w = spd_solve(sigma, wvec(a))
        s_inv_r = spd_solve(sigma, rvec(a))
        gram[0, 0] = wvec(a) @ s_inv_w
        gram[0, 1] = gram[1, 0] = wvec(a) @ s_inv_r
        gram[1, 1] = rvec(a) @ s_inv_r
        nu = 2.0 * scipy.linalg.solve(gram, np.array([a[iT], a[iR]]))
        return 0.5 * (nu[0] * s_inv_w + nu[1] * s_inv_r), -nu

    names = (tuple(f"w{i + 1}" for i in range(m_dim)) + ("Wt",)
             + tuple(f"r{i + 1}" for i in range(m_dim)) + ("Rt",))
    return ProblemModel(
        name=name, M=m_dim, N=n_dim,
        objective=lambda x, a: float(-(x @ sigma @ x)),
        **constraint_fields(_original_budgets(m_dim)),
        grad_x_objective=lambda x, a: -2.0 * sigma @ x,
        grad_a_objective=lambda x, a: np.zeros(n_dim),
        hess_xx_objective=lambda x, a: -2.0 * sigma,
        hess_xa_objective=lambda x, a: np.zeros((m_dim, n_dim)),
        analytic_solution=solution,
        parameter_names=names,
    )


def portfolio_rows(model: ProblemModel, sol, _sens=None):
    """Unit variance directions, then Slutsky rows of both constraints."""
    m_dim = model.M
    variance_rows = np.eye(m_dim, model.N)
    rows = np.vstack([variance_rows] + [b.rows(sol.x) for b in _principal_budgets(m_dim)])
    return prescribe_isovectors(rows, sol.blocks.Ga)


def _blocks(run: BenchRun):
    budget, ret = _principal_budgets(run.model.M)
    jac, x = run.sens.x_jac, run.sol.x
    return jac[:, :run.model.M], budget.substitution(jac, x), ret.substitution(jac, x)


def _pf_check_closed_form(run):
    m_dim = run.model.M
    a = run.sol.a
    x_formula, nu = portfolio_solution(a[:m_dim], a[m_dim:2 * m_dim],
                                       a[2 * m_dim:3 * m_dim],
                                       a[3 * m_dim], a[3 * m_dim + 1])
    newton = newton_solve(run.model, a, x_formula * 0.85)
    res = max_abs(newton.x - x_formula)
    res = max(res, max_abs(-newton.lam - nu))
    return report("closed_form_solution", "allocation-closed-form", res, 1e-8,
                  multipliers=nu.tolist())


def _pf_check_csm_blocks(run):
    var_resp, sub_w, sub_r = _blocks(run)
    nu = -run.sol.lam
    two_x = np.diag(2.0 * run.sol.x)
    expected = np.block([
        [two_x @ var_resp, two_x @ sub_w, two_x @ sub_r],
        [-nu[0] * var_resp, -nu[0] * sub_w, -nu[0] * sub_r],
        [-nu[1] * var_resp, -nu[1] * sub_w, -nu[1] * sub_r],
    ])
    return report("csm_block_structure", "uncorrelated-block-form",
                  matrix_mismatch(-run.omega_eq7.matrix, expected), IDENTITY_TOL)


def _pf_check_symmetry_relations(run):
    var_resp, sub_w, sub_r = _blocks(run)
    nu = -run.sol.lam
    x = run.sol.x
    sq_resp = np.diag(2.0 * x) @ var_resp          # responses of squared shares
    res = matrix_mismatch(sq_resp, -4.0 * np.outer(x, x) * sub_w / nu[0])
    res = max(res, matrix_mismatch(sq_resp, -4.0 * np.outer(x, x) * sub_r / nu[1]))
    return report("symmetry_relations", "block-proportionality", res, IDENTITY_TOL)


def _pf_check_null_vectors(run):
    m_dim = run.model.M
    var_resp, sub_w, sub_r = _blocks(run)
    w = run.sol.a[m_dim:2 * m_dim]
    r = run.sol.a[2 * m_dim:3 * m_dim]
    scaled = var_resp / run.sol.x                   # X^-1-weighted squared-share block
    worst = 0.0
    for mat in (sub_w, sub_r, 2.0 * scaled):
        for vec in (w, r):
            worst = max(worst, max_abs(mat @ vec))
    return report("null_vectors", "constraint-null-vectors", worst, IDENTITY_TOL)


def _make_original_check(sigma, w, r):
    sigma = np.asarray(sigma, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)

    def check_original(run):
        m_dim = run.model.M
        variances, vectors, W, R, dropped = principal_data(sigma, w, r)
        companion = original_model(sigma)
        a_orig = np.concatenate([w, [run.sol.a[3 * m_dim]], r,
                                 [run.sol.a[3 * m_dim + 1]]])
        x_orig, lam_orig = companion.analytic_solution(a_orig)
        sol = newton_solve(companion, a_orig, np.asarray(x_orig) * 0.9)
        sens = decision_jacobian_ift(companion, sol)
        back = vectors @ run.sol.x
        res = max_abs(back - sol.x)
        sub_w, sub_r = (b.substitution(sens.x_jac, sol.x) for b in _original_budgets(m_dim))
        nu = -sol.lam
        res = max(res, min_eig_violation(nu[0] * sub_w, "positive"))
        res = max(res, min_eig_violation(nu[1] * sub_r, "positive"))
        res = max(res, matrix_mismatch(nu[1] * sub_w, nu[0] * sub_r))
        for mat in (sub_w, sub_r):
            for vec in (w, r):
                res = max(res, max_abs(mat @ vec))
        rank_ok = (estimate_rank(sub_w) <= m_dim - 2
                   and estimate_rank(sub_r) <= m_dim - 2)
        return report("original_coordinates", "asset-coordinate-consistency",
                      res if rank_ok else max(res, 1.0), IDENTITY_TOL,
                      dropped=list(dropped))

    return check_original


DEFAULT_SIGMA = np.array([
    [1.0, 0.3, 0.2, 0.1],
    [0.3, 1.5, 0.4, 0.2],
    [0.2, 0.4, 2.0, 0.3],
    [0.1, 0.2, 0.3, 2.5],
])
DEFAULT_RETURNS = np.array([0.04, 0.07, 0.11, 0.09])


def register_efficient_portfolio(sigma=None, returns=None, target=0.09) -> BenchmarkEntry:
    sigma = DEFAULT_SIGMA if sigma is None else np.asarray(sigma, dtype=float)
    returns = DEFAULT_RETURNS if returns is None else np.asarray(returns, dtype=float)
    m_dim = sigma.shape[0]
    w = np.ones(m_dim)
    variances, vectors, W, R, dropped = principal_data(sigma, w, returns)
    model = principal_model(variances.size)
    default_point = np.concatenate([variances, W, R, [1.0, target]])
    x_start, _ = model.analytic_solution(default_point)
    check_original = _make_original_check(sigma, w, returns)
    suite = (
        ("closed_form_solution", _pf_check_closed_form),
        ("csm_block_structure", _pf_check_csm_blocks),
        ("symmetry_relations", _pf_check_symmetry_relations),
        ("null_vectors", _pf_check_null_vectors),
        ("original_coordinates", check_original),
    )
    def derived(run: BenchRun) -> dict:
        var_resp, sub_w, sub_r = _blocks(run)
        nu = -run.sol.lam
        return {
            "squared_share_response": (np.diag(2.0 * run.sol.x) @ var_resp,
                                       "negative"),
            "budget_substitution": (-nu[0] * sub_w, "negative"),
            "return_substitution": (-nu[1] * sub_r, "negative"),
        }

    return BenchmarkEntry(
        name="efficient_portfolio", model=model, default_point=default_point,
        x0=x_start * 0.9,
        isovector_recipe=portfolio_rows,
        property_suite=suite,
        derived_matrices=derived,
        description="minimum-variance allocation at a prescribed expected return",
    )
