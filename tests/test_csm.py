import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from compstat import csm
from compstat.benchmarks import all_benchmarks, get_benchmark
from compstat.benchmarks.profit import production_gradient
from compstat.benchmarks.slutsky import (demand_model, reduced_substitution,
                                        substitution_matrix)
from compstat.diagnostics import check_tangent_semidefinite
from compstat.errors import (AssemblyError, ConfigurationError,
                             ConstraintQualificationError, DomainError)
from compstat.geometry import build_isovectors
from compstat.model import Blocks
from compstat.sensitivity import decision_jacobian_ift
from compstat.solver import SolutionPoint, solve_interior

from conftest import generic_quadratic_instance, separable_model

RECIPE_REL_TOL = 1e-6


def shifted_demand_entry():
    """Demand benchmark with a constant utility shift, making the objective
    positive so the log-route recipe applies."""
    from dataclasses import replace
    base = demand_model(np.array([0.5, 0.5]), name="demand_shifted")
    model = replace(
        base,
        objective=lambda x, a: base.objective(x, a) + 5.0,
        invariance_generators=(), separable_kappa=base.separable_kappa)
    return model


def prepare(name, pipeline="analytic"):
    return get_benchmark(name).prepare(pipeline)


def test_omega_equals_scaled_substitution_matrix():
    run = prepare("slutsky_hicks")
    omega = csm.build_omega(run.model, run.sol, run.sens, run.iso)
    expected = -run.sol.lam[0] * substitution_matrix(run)
    assert omega.matrix == pytest.approx(expected, abs=1e-12)
    assert omega.eigenvalues.min() >= -1e-8
    assert omega.sign_convention == "positive_semidefinite_expected"


def test_separable_model_omega_vanishes():
    model, _ = separable_model()
    sol = solve_interior(model, np.array([0.4, 1.1]))
    sens = decision_jacobian_ift(model, sol)
    iso = build_isovectors(np.zeros((0, 2)))
    omega = csm.build_omega(model, sol, sens, iso)
    assert np.max(np.abs(omega.matrix)) < 1e-12
    assert omega.rank_estimate == 0


def test_quadratic_recipe_matches_main_recipe_everywhere():
    for entry in all_benchmarks():
        run = entry.prepare("analytic" if entry.has_analytic else "numeric")
        a_mat = csm.build_omega(run.model, run.sol, run.sens, run.iso).matrix
        b_mat = csm.build_omega_quadratic(run.model, run.sol, run.sens, run.iso).matrix
        scale = max(1.0, float(np.max(np.abs(a_mat))))
        assert np.max(np.abs(a_mat - b_mat)) / scale < RECIPE_REL_TOL, entry.name


def test_unconstrained_quadratic_form_reduction():
    # with plain partial-derivative directions the quadratic recipe is the
    # negated Jacobian-sandwiched objective Hessian
    run = prepare("profit_cd")
    iso = build_isovectors(np.zeros((0, run.model.N)))
    quad = csm.build_omega_quadratic(run.model, run.sol, run.sens, iso)
    hess = Blocks(run.model, run.sol.x, run.sol.a).fxx
    expected = -run.sens.x_jac.T @ hess @ run.sens.x_jac
    assert quad.matrix == pytest.approx(expected, abs=1e-12)


def test_zero_jacobian_gives_zero_quadratic_matrix():
    model, _ = separable_model()
    sol = solve_interior(model, np.array([0.0, 0.5]))
    sens = decision_jacobian_ift(model, sol)
    iso = build_isovectors(np.zeros((0, 2)))
    quad = csm.build_omega_quadratic(model, sol, sens, iso)
    assert np.max(np.abs(quad.matrix)) == 0.0


def test_unconstrained_variants_require_no_constraints():
    run = prepare("slutsky_hicks")
    with pytest.raises(ConfigurationError):
        csm.build_omega_a2(run.model, run.sol, run.sens)


def test_plain_variant_blocks_on_profit():
    run = prepare("profit_cd")
    a2 = csm.build_omega_a2(run.model, run.sol, run.sens)
    m_dim = run.model.M
    w_block = run.sens.x_jac[:, :m_dim]
    assert a2.matrix[:m_dim, :m_dim] == pytest.approx(-w_block, abs=1e-10)
    assert np.linalg.eigvalsh(0.5 * (w_block + w_block.T)).max() <= 1e-8
    # own output-price entry is the supply slope, nonnegative
    dFdp = production_gradient(run) @ run.sens.x_jac[:, m_dim]
    assert a2.matrix[m_dim, m_dim] == pytest.approx(dFdp, abs=1e-10)
    assert dFdp >= 0.0
    assert a2.eigenvalues.min() >= -1e-8 * a2.eigenvalues.max()


def test_log_variant_equals_plain_variant_at_solution():
    run = prepare("profit_cd")
    a1 = csm.build_omega_a1(run.model, run.sol, run.sens)
    a2 = csm.build_omega_a2(run.model, run.sol, run.sens)
    # the formulas differ by a rank-one term scaled by the decision gradient,
    # which vanishes at the solution
    blocks = Blocks(run.model, run.sol.x, run.sol.a)
    correction = -(np.outer(blocks.fx, blocks.fa) / blocks.f).T @ run.sens.x_jac
    assert a1.matrix - a2.matrix == pytest.approx(correction, abs=1e-9)
    assert np.max(np.abs(correction)) < 1e-9
    assert a1.eigenvalues.min() >= -1e-8 * max(a1.eigenvalues.max(), 1e-12)


def test_log_variant_rejects_nonpositive_objective():
    run = prepare("slutsky_hicks")          # utility is -log 2 < 0 at the point
    model = shifted_demand_entry()
    sol = solve_interior(model, run.sol.a)
    sens = decision_jacobian_ift(model, sol)
    with pytest.raises(DomainError, match="shift"):
        csm.build_omega_b(run.model, run.sol, run.sens, run.iso)
    shifted = csm.build_omega_b(model, sol, sens, run.iso)
    omega = csm.build_omega(model, sol, sens, run.iso)
    assert shifted.matrix == pytest.approx(omega.matrix, abs=1e-9)
    assert shifted.eigenvalues.min() >= -1e-8 * shifted.eigenvalues.max()


def test_log_constrained_variant_on_single_constraint_toy():
    model, a_point = generic_quadratic_instance(seed=9)
    from dataclasses import replace
    toy = replace(model, name="toy_k1", constraints=model.constraints[:1],
                  grad_x_constraints=model.grad_x_constraints[:1],
                  grad_a_constraints=model.grad_a_constraints[:1],
                  hess_xx_constraints=model.hess_xx_constraints[:1],
                  hess_xa_constraints=model.hess_xa_constraints[:1],
                  analytic_solution=None)
    sol = solve_interior(toy, a_point, x0=np.zeros(toy.M))
    fval = Blocks(toy, sol.x, sol.a).f
    if fval <= 0:                            # shift to the log-route domain
        toy = replace(toy, objective=lambda x, a, _f=toy.objective:
                      _f(x, a) + 1.0 - fval)
        sol = solve_interior(toy, a_point, x0=sol.x)
    sens = decision_jacobian_ift(toy, sol)
    iso = build_isovectors(Blocks(toy, sol.x, sol.a).Ga)
    omega_b = csm.build_omega_b(toy, sol, sens, iso)
    omega = csm.build_omega(toy, sol, sens, iso)
    scale = max(1.0, np.max(np.abs(omega.matrix)))
    assert np.max(np.abs(omega_b.matrix - omega.matrix)) / scale < 1e-8
    assert omega_b.eigenvalues.min() >= -1e-8 * max(omega_b.eigenvalues.max(), 1e-12)
    assert omega.eigenvalues.min() >= -1e-8 * max(omega.eigenvalues.max(), 1e-12)


def test_log_constrained_variant_matches_expenditure_blocks():
    # the revenue objective is positive, so the log route applies directly;
    # at the solution it reproduces the main recipe, which the benchmark
    # suite ties entrywise to the expenditure-compensated block matrix
    run = prepare("cost_constrained_profit")
    omega_b = csm.build_omega_b(run.model, run.sol, run.sens, run.iso)
    omega = csm.build_omega(run.model, run.sol, run.sens, run.iso)
    scale = max(1.0, float(np.max(np.abs(omega.matrix))))
    assert np.max(np.abs(omega_b.matrix - omega.matrix)) / scale < 1e-9
    from compstat.benchmarks.multi_output import cost_constrained_model
    assert omega_b.eigenvalues.min() >= -1e-8 * omega_b.eigenvalues.max()


def test_constant_decision_log_variant_is_zero():
    model, _ = separable_model()
    from dataclasses import replace
    positive = replace(model, name="separable_pos",
                       objective=lambda x, a, _f=model.objective: _f(x, a) + 10.0)
    sol = solve_interior(positive, np.array([0.3, 0.7]))
    sens = decision_jacobian_ift(positive, sol)
    iso = build_isovectors(np.zeros((0, 2)))
    omega_b = csm.build_omega_b(positive, sol, sens, iso)
    assert np.max(np.abs(omega_b.matrix)) < 1e-10


def test_silberberg_sandwich_identity_everywhere():
    for entry in all_benchmarks():
        run = entry.prepare("analytic" if entry.has_analytic else "numeric")
        omega = csm.build_omega(run.model, run.sol, run.sens, run.iso).matrix
        s_res = csm.build_silberberg(run.model, run.sol, run.sens)
        sandwich = run.iso.vectors @ s_res.matrix @ run.iso.vectors.T
        scale = max(1.0, float(np.max(np.abs(omega))))
        assert np.max(np.abs(sandwich - omega)) / scale < RECIPE_REL_TOL, entry.name
        tangent = check_tangent_semidefinite(s_res, run.sol.blocks.Ga, "silberberg_S|tangent")
        assert tangent.residual <= 1e-8, entry.name


def test_silberberg_unconstrained_matches_plain_variant():
    run = prepare("profit_cd")
    s_res = csm.build_silberberg(run.model, run.sol, run.sens)
    a2 = csm.build_omega_a2(run.model, run.sol, run.sens)
    assert s_res.matrix == pytest.approx(a2.matrix, abs=1e-10)
    tangent = check_tangent_semidefinite(s_res, run.sol.blocks.Ga, "silberberg_S|tangent")
    assert tangent.details["subspace_dim"] == run.model.N


def test_silberberg_tangent_restriction_on_demand():
    run = prepare("slutsky_hicks")
    s_res = csm.build_silberberg(run.model, run.sol, run.sens)
    tangent = check_tangent_semidefinite(s_res, run.sol.blocks.Ga, "silberberg_S|tangent")
    assert tangent.details["subspace_dim"] == run.model.N - 1
    basis = scipy.linalg.null_space(run.sol.blocks.Ga)
    restricted = basis.T @ s_res.symmetrized() @ basis
    assert np.linalg.eigvalsh(0.5 * (restricted + restricted.T)).min() >= -1e-8


def test_universal_unconstrained_equals_plain_variant():
    run = prepare("profit_cd")
    u_res = csm.build_universal(run.model, run.sol, run.sens)
    a2 = csm.build_omega_a2(run.model, run.sol, run.sens)
    assert u_res.matrix == pytest.approx(a2.matrix.T, abs=1e-10)


def test_universal_sandwich_identity_everywhere():
    for entry in all_benchmarks():
        run = entry.prepare("analytic" if entry.has_analytic else "numeric")
        omega = csm.build_omega(run.model, run.sol, run.sens, run.iso).matrix
        u_res = csm.build_universal(run.model, run.sol, run.sens)
        assert u_res.eigenvalues.min() >= -1e-7 * max(u_res.eigenvalues.max(), 1e-9), entry.name
        sandwich = run.iso.vectors @ u_res.matrix @ run.iso.vectors.T
        scale = max(1.0, float(np.max(np.abs(omega))))
        assert np.max(np.abs(sandwich - omega)) / scale < RECIPE_REL_TOL, entry.name


def test_universal_rank_on_generic_quadratic():
    model, a_point = generic_quadratic_instance()
    sol = solve_interior(model, a_point)
    sens = decision_jacobian_ift(model, sol)
    u_res = csm.build_universal(model, sol, sens)
    assert u_res.rank_estimate == min(model.M - model.K, model.N) == 3


@pytest.mark.parametrize("gx, message", [
    ([[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]], "linearly dependent"),    # nearly parallel
    ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]], "not finite"),
    ([[1e200, 1e200, 0.0], [0.0, 1.0, 0.0]], "not finite"),         # its length overflows
    ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "vanish"),
])
def test_universal_refuses_unqualified_constraint_gradients_with_a_typed_error(gx, message):
    # library callers may hand over any G_x: U reads the solution's SVD of
    # the unit-length rows, which raises a typed error, never a LinAlgError
    gx = np.array(gx)
    model = SimpleNamespace(name="guarded", K=2)
    blocks = SimpleNamespace(model=model, Gx=gx, Ga=np.ones((2, 4)),
                             lagrangian_hess_xx=lambda lam: -np.eye(3),
                             lagrangian_hess_xa=lambda lam: np.ones((3, 4)))
    sol = SolutionPoint(a=np.zeros(4), x=np.zeros(3), lam=np.zeros(2), kkt_residual=0.0,
                        iterations=0, converged=True, source="newton", blocks=blocks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintQualificationError, match=message):
            csm.build_universal(model, sol, SimpleNamespace(x_jac=np.ones((3, 4))))


def test_transform_identity_and_classification():
    run = prepare("slutsky_hicks")
    omega = csm.build_omega(run.model, run.sol, run.sens, run.iso)
    same = csm.transform_csm(omega, np.eye(2))
    assert same.matrix == pytest.approx(omega.matrix)
    assert same.transform_kind == "congruence"
    sing = csm.transform_csm(omega, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert sing.transform_kind == "singular"
    contracted = csm.transform_csm(omega, np.array([[1.0, 0.5]]))
    assert contracted.transform_kind == "contraction"
    assert contracted.order == 1
    assert contracted.rank_estimate <= omega.rank_estimate
    assert contracted.eigenvalues.min() >= -1e-12


def test_reduced_substitution_is_income_scaled_sigma():
    # in the parameters (p/m, m) the substitution block is m times the
    # plain one: the degree-zero homogeneity of demand
    run = prepare("slutsky_hicks", "analytic")
    m_val = run.sol.a[2]
    assert reduced_substitution(run) == pytest.approx(
        m_val * substitution_matrix(run), abs=1e-10)


def test_ratio_decision_map_is_a_congruence_family_member():
    # the Jacobian of the ratio decisions x/F, times the output level F, is
    # the congruence family member I - (x/F) w^T / p at the solution
    run = prepare("profit_cd")
    m_dim = run.model.M
    F_val = Blocks(run.model, run.sol.x, run.sol.a).fa[m_dim]
    F_grad = production_gradient(run)
    d_new_old = np.eye(m_dim) / F_val - np.outer(run.sol.x, F_grad) / F_val**2
    w, p = run.sol.a[:m_dim], run.sol.a[m_dim]
    delta = np.eye(m_dim) - np.outer(run.sol.x / F_val, w) / p
    assert d_new_old * F_val == pytest.approx(delta, abs=1e-10)


def test_spectral_relation_on_unconstrained_profit():
    run = prepare("profit_cd")
    iso = build_isovectors(np.zeros((0, run.model.N)))
    quad = csm.build_omega_quadratic(run.model, run.sol, run.sens, iso)
    hess = Blocks(run.model, run.sol.x, run.sol.a).fxx
    rel = csm.spectral_relation(quad, hess, run.sens, iso)
    assert np.max(rel.reconstruction_residuals) < 1e-6
    # concave objective: every matrix eigenvalue is nonnegative
    assert rel.hessian_eigenvalues.max() <= 1e-10
    assert rel.csm_eigenvalues.min() >= -1e-8


def test_spectral_relation_zero_jacobian():
    model, _ = separable_model()
    sol = solve_interior(model, np.array([0.2, 0.4]))
    sens = decision_jacobian_ift(model, sol)
    iso = build_isovectors(np.zeros((0, 2)))
    quad = csm.build_omega_quadratic(model, sol, sens, iso)
    rel = csm.spectral_relation(quad, Blocks(model, sol.x, sol.a).fxx, sens, iso)
    assert np.max(np.abs(rel.csm_eigenvalues)) < 1e-14
    assert np.max(rel.reconstruction_residuals) < 1e-14


def test_symmetry_residual_reported_before_symmetrization():
    mat = np.array([[1.0, 0.2], [0.1, 1.0]])
    wrapped = csm.from_matrix(mat, "raw")
    assert wrapped.symmetry_residual == pytest.approx(0.1)
    assert wrapped.matrix == pytest.approx(mat)      # stored unsymmetrized


def test_rank_estimate_conventions():
    assert csm.estimate_rank(np.zeros((3, 3))) == 0
    assert csm.estimate_rank(np.diag([1.0, 1e-12, 0.5])) == 2


@pytest.mark.parametrize("error, typed", [(TypeError, False), (DomainError, True)])
@pytest.mark.parametrize("builder", [csm.build_omega, csm.build_omega_quadratic])
def test_only_typed_block_errors_become_assembly_errors(builder, error, typed):
    class Unavailable:              # a solution whose Lagrangian blocks raise
        @property
        def lxx(self):
            raise error("user bug in a Hessian block")
        lxa = lxx

    model = SimpleNamespace(name="guarded", N=1)
    sol = Unavailable()
    sens = SimpleNamespace(x_jac=np.eye(1))
    iso = SimpleNamespace(vectors=np.eye(1), n_parameters=1, count=1)
    if typed:
        with pytest.raises(AssemblyError, match="'guarded'") as info:
            builder(model, sol, sens, iso)
        assert isinstance(info.value.__cause__, DomainError)
    else:
        with pytest.raises(TypeError, match="user bug in a Hessian block"):
            builder(model, sol, sens, iso)
