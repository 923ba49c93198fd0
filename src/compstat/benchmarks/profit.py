"""Single-output profit maximization benchmarks.

The Cobb-Douglas firm has a fully closed-form demand system, so every
derivative carries a hand oracle.  A concave-quadratic instance with a
production deficit supplies a genuine zero-profit point for the
singular-transformation study (Cobb-Douglas profit never vanishes).
"""

from __future__ import annotations

import math

import numpy as np

from ..csm import build_omega, build_omega_a2, from_matrix, transform_csm
from ..diagnostics import IDENTITY_TOL, matrix_mismatch, min_eig_violation, report
from ..errors import ConfigurationError, DomainError
from ..geometry import build_isovectors, prescribe_isovectors
from ..model import InvarianceGenerator, ProblemModel, augment_with_scale
from ..numeric import max_abs
from ..sensitivity import decision_jacobian_ift
from ..solver import solve_interior
from .base import BenchRun, BenchmarkEntry

NEGATIVE = "negative_semidefinite_expected"

# -- Cobb-Douglas technology -------------------------------------------------


def cd_production(gamma, F0):
    gamma = np.asarray(gamma, dtype=float)

    def value(x):
        if (x <= 0).any():
            return float("nan")                # outside the technology's domain
        return float(F0 * (x ** gamma).prod())

    def grad(x):
        level = value(x)
        if math.isnan(level):                  # outside the domain, as value
            return np.full(x.shape, np.nan)
        return gamma * level / x

    def hess(x):
        g_over_x = gamma / x
        return value(x) * (np.outer(g_over_x, g_over_x) - np.diag(gamma / x**2))

    return value, grad, hess


def cd_profit_model(gamma=(1.0 / 3.0, 1.0 / 3.0), F0=1.0,
                    name="profit_cd") -> ProblemModel:
    gamma = np.asarray(gamma, dtype=float)
    total = float(gamma.sum())
    if total >= 1.0 or np.any(gamma <= 0):
        raise ConfigurationError(
            "Cobb-Douglas exponents must be positive with sum below 1 "
            "for an interior maximum")
    m_dim = gamma.size
    F, F_grad, F_hess = cd_production(gamma, F0)

    def solution(a):
        w, p = a[:m_dim], a[m_dim]
        if w.min() <= 0 or p <= 0:
            raise DomainError("the closed form needs positive prices; got "
                              f"w = {w.tolist()}, p = {float(p)!r}")
        level = (F0 * p**total * ((gamma / w) ** gamma).prod()) ** (1.0 / (1.0 - total))
        return p * gamma * level / w, np.zeros(0)

    homogeneity = InvarianceGenerator(
        name="price_scale",
        X_map=lambda x: np.zeros(m_dim),
        A_map=lambda a: a,
    )
    return ProblemModel(
        name=name, M=m_dim, N=m_dim + 1,
        objective=lambda x, a: float(a[m_dim] * F(x) - a[:m_dim] @ x),
        grad_x_objective=lambda x, a: a[m_dim] * F_grad(x) - a[:m_dim],
        grad_a_objective=lambda x, a: np.append(-x, F(x)),
        hess_xx_objective=lambda x, a: a[m_dim] * F_hess(x),
        hess_xa_objective=lambda x, a: np.hstack(
            [-np.eye(m_dim), F_grad(x).reshape(-1, 1)]),
        analytic_solution=solution,
        parameter_names=tuple(f"w{i + 1}" for i in range(m_dim)) + ("p",),
        invariance_generators=(homogeneity,),
    )


def cd_demand_jacobian(gamma, F0=1.0):
    gamma = np.asarray(gamma, dtype=float)
    total = float(gamma.sum())
    model = cd_profit_model(gamma, F0, name="_jac_helper")

    def x_jac(a):
        m_dim = gamma.size
        x, _ = model.analytic_solution(a)
        w, p = a[:m_dim], a[m_dim]
        jac = np.empty((m_dim, m_dim + 1))
        for mu in range(m_dim):
            jac[mu, :m_dim] = -(x[mu] / w) * gamma / (1.0 - total)
            jac[mu, mu] -= x[mu] / w[mu]
            jac[mu, m_dim] = x[mu] / (p * (1.0 - total))
        return jac

    return x_jac


# -- derived quantities shared by the suite and the acceptance tests ---------


def production_level(run: BenchRun) -> float:
    """Output at the solution; the output-price slot of grad_a f."""
    return float(run.sol.blocks.fa[run.model.M])


def production_gradient(run: BenchRun) -> np.ndarray:
    """grad_x of the output level, recovered as (grad_x f + w) / p."""
    m_dim = run.model.M
    return (run.sol.blocks.fx + run.sol.a[:m_dim]) / run.sol.a[m_dim]


def supply_derivative(run: BenchRun) -> float:
    """d(output)/d(output price) through the demand sensitivities."""
    return float(production_gradient(run) @ run.sens.x_jac[:, run.model.M])


def input_price_block(run: BenchRun) -> np.ndarray:
    return run.sens.x_jac[:, :run.model.M]


def elasticity_triple(run: BenchRun, mu: int = 0):
    """Own-price demand elasticity: exact value, sharpened upper bound, and
    the standard (sign-only) bound."""
    m_dim = run.model.M
    w, x = run.sol.a[:m_dim], run.sol.x
    exact = (w[mu] / x[mu]) * input_price_block(run)[mu, mu]
    x_p = run.sens.x_jac[:, m_dim]
    sharpened = (w[mu] / x[mu]) * (-(x_p[mu] ** 2) / supply_derivative(run))
    return exact, sharpened, 0.0


def supply_elasticity_pair(run: BenchRun):
    """Supply elasticity and its lower bound from the input-price block."""
    m_dim = run.model.M
    w, p = run.sol.a[:m_dim], run.sol.a[m_dim]
    F_val = production_level(run)
    sigma = (p / F_val) * supply_derivative(run)
    bound = -(w @ input_price_block(run) @ w) / (p * F_val)
    return sigma, bound


def ratio_matrix(run: BenchRun) -> np.ndarray:
    """Compensated responses of the input/output ratios zeta = x / F."""
    m_dim = run.model.M
    F_val = production_level(run)
    d_zeta = np.eye(m_dim) / F_val - np.outer(run.sol.x, production_gradient(run)) / F_val**2
    zeta_jac = d_zeta @ run.sens.x_jac
    zeta = run.sol.x / F_val
    return zeta_jac[:, :m_dim] + np.outer(zeta_jac[:, m_dim], zeta)


def family_member(run: BenchRun, l_vec: np.ndarray):
    """Member of the congruence family (I - l w^T/p) W (I - l w^T/p)^T."""
    m_dim = run.model.M
    w, p = run.sol.a[:m_dim], run.sol.a[m_dim]
    base = from_matrix(input_price_block(run), "input_price_block", NEGATIVE)
    return transform_csm(base, np.eye(m_dim) - np.outer(l_vec, w) / p)


def scale_rows(aug_model: ProblemModel, sol, _sens=None):
    """Tangent rows of the scale-augmented objective."""
    m_dim = aug_model.M
    grad = sol.blocks.fa      # (-s x, s F, profit)
    phi = grad[m_dim + 1]
    s_val = sol.a[m_dim + 1]
    rows = np.zeros((m_dim + 1, m_dim + 2))
    for alpha in range(m_dim):
        rows[alpha, alpha] = 1.0
        rows[alpha, m_dim + 1] = s_val * sol.x[alpha] / phi
    rows[m_dim, m_dim] = 1.0
    rows[m_dim, m_dim + 1] = -grad[m_dim] / phi
    return prescribe_isovectors(rows, grad.reshape(1, -1), annihilates_objective=True)


def augmented_run(run: BenchRun):
    aug = augment_with_scale(run.model)
    sol = solve_interior(aug, np.append(run.sol.a, 1.0))
    sens = decision_jacobian_ift(aug, sol)
    return aug, sol, sens, scale_rows(aug, sol, sens)


# -- property suite -----------------------------------------------------------


def _make_suite(gamma, F0):
    def check_closed_form_jacobian(run):
        expected = cd_demand_jacobian(gamma, F0)(run.sol.a)
        return report("closed_form_jacobian", "demand-jacobian-value",
                      matrix_mismatch(run.sens.x_jac, expected), IDENTITY_TOL)

    def check_supply_response(run):
        dFdp = supply_derivative(run)
        a2 = build_omega_a2(run.model, run.sol, run.sens)
        res = max(0.0, -dFdp) + abs(a2.matrix[run.model.M, run.model.M] - dFdp)
        return report("supply_response_nonneg", "supply-slope-sign", res,
                      IDENTITY_TOL, dFdp=dFdp)

    def check_input_block(run):
        a2 = build_omega_a2(run.model, run.sol, run.sens)
        return report("input_price_block_a2", "unconstrained-recipe-block",
                      matrix_mismatch(a2.matrix[:run.model.M, :run.model.M],
                                      -input_price_block(run)), IDENTITY_TOL)

    def check_ratio_matrix(run):
        z_direct = ratio_matrix(run)
        # the ratio-variable Jacobian is the unit-diagonal family map divided
        # by the output level, so the family member overshoots by that factor
        member = family_member(run, run.sol.x / production_level(run))
        return report("ratio_matrix_family", "ratio-responses-family-member",
                      matrix_mismatch(member.matrix / production_level(run), z_direct),
                      IDENTITY_TOL)

    def check_cross_derivative(run):
        m_dim = run.model.M
        x_p = run.sens.x_jac[:, m_dim]
        dF_dw = production_gradient(run) @ input_price_block(run)
        return report("cross_derivative_identity", "reciprocity-output-input",
                      matrix_mismatch(-dF_dw, x_p), IDENTITY_TOL)

    def check_scale_rows_csm(run):
        aug, sol, sens, iso = augmented_run(run)
        omega = build_omega(aug, sol, sens, iso)
        m_dim = run.model.M
        scale = max(1.0, max_abs(omega.matrix))
        res = omega.symmetry_residual / scale
        res = max(res, min_eig_violation(omega.matrix, "positive"))
        dF_dw = production_gradient(run) @ sens.x_jac[:, :m_dim]
        x_p = sens.x_jac[:, m_dim]
        res = max(res, max_abs(omega.matrix[m_dim, :m_dim] - dF_dw) / scale)
        res = max(res, max_abs(omega.matrix[:m_dim, m_dim] + x_p) / scale)
        return report("scale_rows_csm", "augmented-recipe-symmetry", res, IDENTITY_TOL)

    def check_sharpened_input_bound(run):
        w_block = input_price_block(run)
        x_p = run.sens.x_jac[:, run.model.M]
        sharpened = w_block + np.outer(x_p, x_p) / supply_derivative(run)
        return report("sharpened_input_bound", "sharpened-own-price-bound",
                      min_eig_violation(sharpened, "negative"), IDENTITY_TOL,
                      diagonal=np.diag(sharpened).tolist())

    def check_supply_bound(run):
        sigma, bound = supply_elasticity_pair(run)
        # the bound holds generally; this technology attains it exactly
        res = max(max(0.0, bound - sigma), abs(sigma - bound))
        return report("supply_bound", "supply-slope-lower-bound", res,
                      IDENTITY_TOL, sigma=sigma, bound=bound)

    return (
        ("closed_form_jacobian", check_closed_form_jacobian),
        ("supply_response_nonneg", check_supply_response),
        ("input_price_block_a2", check_input_block),
        ("ratio_matrix_family", check_ratio_matrix),
        ("cross_derivative_identity", check_cross_derivative),
        ("scale_rows_csm", check_scale_rows_csm),
        ("sharpened_input_bound", check_sharpened_input_bound),
        ("supply_bound", check_supply_bound),
    )


def derived_matrices(run: BenchRun) -> dict:
    return {"input_price_block": (input_price_block(run), "negative"),
            "ratio_responses": (ratio_matrix(run), "negative")}


def register_profit_max(gamma=(1.0 / 3.0, 1.0 / 3.0), F0=1.0,
                        default_point=(1.0, 1.0, 2.0)) -> BenchmarkEntry:
    gamma = np.asarray(gamma, dtype=float)
    model = cd_profit_model(gamma, F0)
    default_point = np.asarray(default_point, dtype=float)
    x_start, _ = model.analytic_solution(default_point)
    return BenchmarkEntry(
        name="profit_cd", model=model, default_point=default_point,
        x0=x_start * 0.9,
        isovector_recipe=lambda m, sol, sens: build_isovectors(np.zeros((0, m.N))),
        property_suite=_make_suite(gamma, F0),
        analytic_x_jac=cd_demand_jacobian(gamma, F0),
        derived_matrices=derived_matrices,
        description="Cobb-Douglas single-output profit maximization",
    )


# -- zero-profit quadratic instance -------------------------------------------


def quadratic_profit_model(c, deficit: float, name="profit_quadratic"):
    """Single output F(x) = deficit + c.x - x.x/2 under prices (w, p).

    Returns the model together with its closed-form demand Jacobian.  With a
    negative deficit the optimal profit p F - w.x can vanish at an interior
    point, which the Cobb-Douglas technology never allows.
    """
    c = np.asarray(c, dtype=float)
    m_dim = c.size

    def solution(a):
        w, p = a[:m_dim], a[m_dim]
        return c - w / p, np.zeros(0)

    def x_jac(a):
        w, p = a[:m_dim], a[m_dim]
        return np.hstack([-np.eye(m_dim) / p, (w / p**2).reshape(-1, 1)])

    model = ProblemModel(
        name=name, M=m_dim, N=m_dim + 1,
        objective=lambda x, a: float(
            a[m_dim] * (deficit + c @ x - 0.5 * x @ x) - a[:m_dim] @ x),
        grad_x_objective=lambda x, a: a[m_dim] * (c - x) - a[:m_dim],
        grad_a_objective=lambda x, a: np.append(-x, deficit + c @ x - 0.5 * x @ x),
        hess_xx_objective=lambda x, a: -a[m_dim] * np.eye(m_dim),
        hess_xa_objective=lambda x, a: np.hstack(
            [-np.eye(m_dim), (c - x).reshape(-1, 1)]),
        analytic_solution=solution,
        parameter_names=tuple(f"w{i + 1}" for i in range(m_dim)) + ("p",),
    )
    return model, x_jac


def zero_profit_instance():
    """A quadratic firm, its zero-profit parameter point, and a nearby
    regular point.  At the zero-profit point the ratio-variable congruence
    loses exactly one rank."""
    c = np.array([2.0, 2.0])
    model, x_jac = quadratic_profit_model(c, deficit=-1.0)
    a_singular = np.array([1.0, 1.0, 1.0])   # profit = 0 at the solution
    a_regular = np.array([1.0, 1.0, 1.25])
    return model, x_jac, a_singular, a_regular


def ratio_transform_rank(model: ProblemModel, x_jac_fn, a) -> int:
    """Rank of the ratio-variable family member at parameter point a."""
    sol = solve_interior(model, a)
    m_dim = model.M
    jac = x_jac_fn(a)
    F_val = float(sol.blocks.fa[m_dim])
    w_block = from_matrix(jac[:, :m_dim], "input_price_block", NEGATIVE)
    member = transform_csm(
        w_block, np.eye(m_dim) - np.outer(sol.x / F_val, a[:m_dim]) / a[m_dim])
    return member.rank_estimate
