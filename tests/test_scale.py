"""Pipeline invariants away from the catalog's default points: larger
systems at desk scale and seeded random instances."""

import numpy as np
import pytest

from compstat import csm
from compstat.benchmarks.slutsky import demand_model, demand_jacobian
from compstat.benchmarks.utility import multi_budget_model
from compstat.geometry import build_isovectors, gcd_apply, prescribe_isovectors, verify_conformance
from compstat.model import Blocks
from compstat.sensitivity import decision_jacobian_fd, decision_jacobian_ift
from compstat.solver import newton_solve, solve_interior

from conftest import generic_quadratic_instance


def _coherence(model, sol, sens, iso, rel_tol=1e-6):
    omega = csm.build_omega(model, sol, sens, iso).matrix
    scale = max(1.0, float(np.max(np.abs(omega))))
    quad = csm.build_omega_quadratic(model, sol, sens, iso).matrix
    s_mat, verdict = csm.build_silberberg(model, sol, sens)
    u_res = csm.build_universal(model, sol, sens)
    rows = iso.vectors
    devs = [np.max(np.abs(quad - omega)),
            np.max(np.abs(rows @ s_mat.matrix @ rows.T - omega)),
            np.max(np.abs(rows @ u_res.matrix @ rows.T - omega))]
    assert max(devs) / scale < rel_tol
    assert verdict.passed
    eig = np.linalg.eigvalsh(0.5 * (omega + omega.T))
    assert eig.min() >= -1e-8 * max(eig.max(), 1e-12)
    assert csm.estimate_rank(omega) <= min(model.M - model.K, iso.count)
    assert u_res.rank_estimate <= min(model.M - model.K, model.N)


def test_eight_good_demand_system():
    rng = np.random.default_rng(21)
    gamma = rng.uniform(0.5, 1.5, size=8)
    model = demand_model(gamma, name="demand8")
    a = np.concatenate([rng.uniform(0.5, 2.0, size=8), [3.0]])
    sol = solve_interior(model, a)
    sens = decision_jacobian_ift(model, sol)
    x_jac_fn, _ = demand_jacobian(gamma)
    assert np.max(np.abs(sens.x_jac - x_jac_fn(a))) < 1e-9
    rows = np.hstack([np.eye(8), sol.x.reshape(-1, 1)])
    iso = prescribe_isovectors(rows, Blocks(model, sol.x, a).Ga)
    _coherence(model, sol, sens, iso)
    fd = decision_jacobian_fd(model, a)
    assert np.max(np.abs(sens.x_jac - fd.x_jac)) < 1e-4


def test_three_budget_utility_rank_law():
    rng = np.random.default_rng(4)
    m_dim, n_con = 6, 3
    target_x = rng.uniform(0.2, 0.5, size=m_dim)
    target_lam = np.array([0.5, 0.3, 0.2])
    prices = rng.uniform(0.5, 1.5, size=(n_con, m_dim))
    gamma = target_x * (target_lam @ prices)
    model = multi_budget_model(gamma, n_con, name="triple_budget")
    a = np.concatenate([np.concatenate([prices[k], [prices[k] @ target_x]])
                        for k in range(n_con)])
    sol = newton_solve(model, a, target_x * 0.9)
    assert sol.converged
    assert np.max(np.abs(sol.x - target_x)) < 1e-9
    assert np.max(np.abs(sol.lam - target_lam)) < 1e-9
    sens = decision_jacobian_ift(model, sol)
    block = m_dim + 1
    rows = np.zeros((n_con * m_dim, model.N))
    for k in range(n_con):
        for alpha in range(m_dim):
            rows[k * m_dim + alpha, k * block + alpha] = 1.0
            rows[k * m_dim + alpha, k * block + m_dim] = sol.x[alpha]
    iso = prescribe_isovectors(rows, Blocks(model, sol.x, a).Ga)
    _coherence(model, sol, sens, iso)
    omega = csm.build_omega(model, sol, sens, iso)
    assert omega.rank_estimate <= m_dim - n_con
    x_semi = gcd_apply(iso, sens.x_jac)
    _, ok = verify_conformance(x_semi, Blocks(model, sol.x, a).Gx)
    assert ok


@pytest.mark.parametrize("seed", [11, 23, 35, 47, 59])
def test_random_quadratic_instances(seed):
    model, a_point = generic_quadratic_instance(seed)
    sol = solve_interior(model, a_point)
    assert sol.converged
    sens = decision_jacobian_ift(model, sol)
    iso = build_isovectors(Blocks(model, sol.x, a_point).Ga)
    _coherence(model, sol, sens, iso)
    fd = decision_jacobian_fd(model, a_point)
    assert np.max(np.abs(sens.x_jac - fd.x_jac)) < 1e-4


def test_demand_system_pipeline_off_default_points():
    gamma = np.array([0.5, 0.5])
    model = demand_model(gamma, name="demand_offgrid")
    rng = np.random.default_rng(17)
    for _ in range(6):
        a = np.concatenate([rng.uniform(0.4, 2.5, size=2),
                            rng.uniform(0.5, 4.0, size=1)])
        sol = solve_interior(model, a)
        sens = decision_jacobian_ift(model, sol)
        rows = np.hstack([np.eye(2), sol.x.reshape(-1, 1)])
        iso = prescribe_isovectors(rows, Blocks(model, sol.x, a).Ga)
        _coherence(model, sol, sens, iso)
