"""Comparative-statics matrix recipes and the transformations among them.

Every recipe produces a square matrix that is semidefinite at an interior
solution, assembled from solution sensitivities, Lagrangian derivative
blocks, and (for the compensated recipes) a set of tangent directions.
The engine stores every recipe's output as positive-semidefinite-expected;
application-level Slutsky-type matrices are derived from them by explicit
negation in the benchmark catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AssemblyError, CompstatError, ConfigurationError, DimensionError,
                     DomainError)
from .geometry import IsovectorSet
from .model import ProblemModel
from .numeric import max_abs
from .sensitivity import SensitivityBundle
from .solver import SolutionPoint

RANK_TOL = 1e-7
SINGULAR_RTOL = 1e-12     # relative singular-value floor of a square transform

POSITIVE = "positive_semidefinite_expected"
NEGATIVE = "negative_semidefinite_expected"


@dataclass(frozen=True)
class CsmResult:
    matrix: np.ndarray
    recipe: str
    sign_convention: str
    eigenvalues: np.ndarray
    symmetry_residual: float
    rank_estimate: int
    rank_tol: float
    labels: tuple = ()
    transform_kind: Optional[str] = None
    note: Optional[str] = None

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def symmetrized(self) -> np.ndarray:
        return 0.5 * (self.matrix + self.matrix.T)


@dataclass(frozen=True)
class SpectralRelation:
    hessian_eigenvalues: np.ndarray
    hessian_eigenvectors: np.ndarray
    csm_eigenvalues: np.ndarray
    csm_eigenvectors: np.ndarray
    mixing_vectors: np.ndarray            # column gamma = sum_mu z_mu dx/da contracted
    reconstruction_residuals: np.ndarray


def estimate_rank(matrix: np.ndarray) -> int:
    return _rank_of_spectrum(np.linalg.eigvalsh(0.5 * (matrix + matrix.T)))


def _rank_of_spectrum(eig: np.ndarray) -> int:
    """Number of eigenvalues above RANK_TOL times the largest magnitude."""
    if eig.size == 0:
        return 0
    return int((np.abs(eig) > RANK_TOL * max_abs(eig)).sum())


def _finalize(matrix: np.ndarray, recipe: str, sign: str, labels=(),
              transform_kind=None, note=None) -> CsmResult:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"recipe {recipe!r} produced a non-square matrix {matrix.shape}")
    sym_res = max_abs(matrix - matrix.T) if matrix.size else 0.0
    sym = 0.5 * (matrix + matrix.T)
    eig = np.linalg.eigvalsh(sym) if sym.size else np.zeros(0)
    return CsmResult(
        matrix=matrix, recipe=recipe, sign_convention=sign,
        eigenvalues=eig, symmetry_residual=sym_res,
        rank_estimate=_rank_of_spectrum(eig),
        rank_tol=RANK_TOL,
        labels=tuple(labels), transform_kind=transform_kind, note=note)


def from_matrix(matrix: np.ndarray, recipe: str, sign: str = POSITIVE,
                labels=()) -> CsmResult:
    """Wrap an externally assembled application matrix with the standard
    spectrum/rank/symmetry bookkeeping."""
    return _finalize(matrix, recipe, sign, labels=labels)


def _require_directions(model: ProblemModel, iso: IsovectorSet):
    if iso.n_parameters != model.N:
        raise DimensionError(
            f"directions live in {iso.n_parameters} parameters, model has {model.N}")


def _compensated_blocks(model: ProblemModel, sol: SolutionPoint,
                        sens: SensitivityBundle, iso: IsovectorSet):
    T = iso.vectors
    x_semi = sens.x_jac @ T.T
    try:
        lxa = sol.lxa
    except (CompstatError, ArithmeticError) as exc:
        raise AssemblyError(
            f"mixed derivative block unavailable for {model.name!r}: {exc}") from exc
    return T, x_semi, lxa


def build_omega(model: ProblemModel, sol: SolutionPoint, sens: SensitivityBundle,
                iso: IsovectorSet) -> CsmResult:
    """Main compensated matrix: entry (alpha, beta) contracts the compensated
    decision derivatives with the compensated mixed Lagrangian block."""
    _require_directions(model, iso)
    T, x_semi, lxa = _compensated_blocks(model, sol, sens, iso)
    omega = (lxa @ T.T).T @ x_semi
    return _finalize(omega, "omega_eq7", POSITIVE,
                     labels=tuple(f"d{alpha + 1}" for alpha in range(iso.count)))


def build_omega_quadratic(model: ProblemModel, sol: SolutionPoint,
                          sens: SensitivityBundle, iso: IsovectorSet) -> CsmResult:
    """The same matrix as the quadratic form of the Lagrangian Hessian in the
    compensated decision derivatives; equality with `build_omega` at a
    solution is the content of the first-order differentiation identity."""
    _require_directions(model, iso)
    x_semi = sens.x_jac @ iso.vectors.T
    try:
        lxx = sol.lxx
    except (CompstatError, ArithmeticError) as exc:
        raise AssemblyError(
            f"decision Hessian unavailable for {model.name!r}: {exc}") from exc
    omega = -x_semi.T @ lxx @ x_semi
    return _finalize(omega, "omega_quadratic", POSITIVE,
                     labels=tuple(f"d{alpha + 1}" for alpha in range(iso.count)))


def _positive_objective_value(model: ProblemModel, sol: SolutionPoint, recipe: str) -> float:
    fval = sol.blocks.f
    if fval <= 0.0:
        raise DomainError(
            f"recipe {recipe} needs a positive objective value (got {fval:.6g}); "
            "add a constant shift to the objective -- decisions are unchanged")
    return fval


def build_omega_a1(model: ProblemModel, sol: SolutionPoint,
                   sens: SensitivityBundle) -> CsmResult:
    """Unconstrained variant through the log of the objective.

    Differs from the plain mixed-derivative variant by a rank-one correction
    proportional to the decision gradient, which vanishes at the solution.
    """
    if model.K != 0:
        raise ConfigurationError("log-objective unconstrained recipe requires K = 0")
    fval = _positive_objective_value(model, sol, "omega_A1")
    outer = np.outer(sol.blocks.fx, sol.blocks.fa)
    log_mixed = sol.blocks.fxa - outer / fval
    return _finalize(log_mixed.T @ sens.x_jac, "omega_A1", POSITIVE,
                     labels=model.parameter_names)


def build_omega_a2(model: ProblemModel, sol: SolutionPoint,
                   sens: SensitivityBundle) -> CsmResult:
    """Unconstrained variant from plain mixed partials of the objective."""
    if model.K != 0:
        raise ConfigurationError("plain unconstrained recipe requires K = 0")
    return _finalize(sol.blocks.fxa.T @ sens.x_jac, "omega_A2", POSITIVE,
                     labels=model.parameter_names)


def build_omega_b(model: ProblemModel, sol: SolutionPoint, sens: SensitivityBundle,
                  iso: IsovectorSet) -> CsmResult:
    """Constrained log-objective variant (scale-compensated construction).

    Assembled through the mixed derivatives of log f plus the constraint
    terms; multipliers are normalized to the log objective, so at an exact
    solution the result coincides with `build_omega` while traversing a
    genuinely different derivative path.
    """
    _require_directions(model, iso)
    fval = _positive_objective_value(model, sol, "omega_B")
    T, x_semi, lxa = _compensated_blocks(model, sol, sens, iso)
    bracket = lxa - np.outer(sol.blocks.fx, sol.blocks.fa) / fval
    omega_b = (bracket @ T.T).T @ x_semi
    return _finalize(
        omega_b, "omega_B", POSITIVE,
        labels=tuple(f"d{alpha + 1}" for alpha in range(iso.count)),
        note="log-objective route; constraint terms carry log-normalized multipliers")


def build_silberberg(model: ProblemModel, sol: SolutionPoint,
                     sens: SensitivityBundle) -> CsmResult:
    """Primal-dual style parameter-space matrix, semidefinite only subject to
    the constraints (`diagnostics.check_tangent_semidefinite`)."""
    s_matrix = sol.lxa.T @ sens.x_jac
    if model.K:
        s_matrix = s_matrix + sol.blocks.Ga.T @ sens.lam_jac
    return _finalize(s_matrix, "silberberg_S", POSITIVE,
                     labels=model.parameter_names,
                     note="semidefinite subject to constraints; see tangent verdict")


def build_universal(model: ProblemModel, sol: SolutionPoint,
                    sens: SensitivityBundle) -> CsmResult:
    """Projection-based maximal matrix over the full parameter set.

    It reads the solution's SVD of the unit-length constraint rows,
    D G_x = W S V^T (`SolutionPoint.constraint_svd`, which raises a
    ConstraintQualificationError unless they are independent): the tangent
    projector is I - V V^T and G_x^T (G_x G_x^T)^-1 G_a = V S^-1 W^T D G_a.
    """
    lxx, lxa = sol.lxx, sol.lxa
    if model.K == 0:
        u_matrix = sens.x_jac.T @ lxa
    else:
        lengths, w, svals, vt = sol.constraint_svd
        coeffs = (w.T @ (sol.blocks.Ga / lengths[:, None])) / svals[:, None]  # S^-1 W^T D G_a
        bracket = lxa - (lxx @ vt.T) @ coeffs
        u_matrix = sens.x_jac.T @ (bracket - vt.T @ (vt @ bracket))
    return _finalize(u_matrix, "universal_U", POSITIVE, labels=model.parameter_names)


def transform_csm(csm: CsmResult, T: np.ndarray) -> CsmResult:
    """Congruence/contraction T M T^T.

    Classifies T as a square congruence, a square singular map, or a
    rectangular contraction; semidefiniteness is preserved in all cases and
    rank is preserved only under a nonsingular square T.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if T.shape[1] != csm.order:
        raise DimensionError(
            f"transform has {T.shape[1]} columns, matrix has order {csm.order}")
    if T.shape[0] == T.shape[1]:
        svals = np.linalg.svd(T, compute_uv=False)
        singular = bool(svals.size and svals[-1] <= SINGULAR_RTOL * max(svals[0], 1.0))
        kind = "singular" if singular else "congruence"
    else:
        kind = "contraction"
    out = T @ csm.matrix @ T.T
    return _finalize(out, "transformed", csm.sign_convention,
                     labels=tuple(f"t{i + 1}" for i in range(T.shape[0])),
                     transform_kind=kind,
                     note=f"from recipe {csm.recipe}")


def spectral_relation(csm: CsmResult, hessian_L: np.ndarray, sens: SensitivityBundle,
                      iso: IsovectorSet) -> SpectralRelation:
    """Each matrix eigenvalue as a nonpositive mixture of Hessian curvatures.

    For eigenpair (mu, z) of the matrix and eigenpairs (m, b) of the
    Hessian block, the mixing vector q = (compensated Jacobian) z satisfies
    mu = -sum_I (q . b_I)^2 m_I; the residual of that identity is reported
    per eigenvalue.
    """
    sym = csm.symmetrized()
    mu, z = np.linalg.eigh(sym)
    hess = 0.5 * (np.asarray(hessian_L, dtype=float) + np.asarray(hessian_L, dtype=float).T)
    m_eig, b_vec = np.linalg.eigh(hess)
    x_semi = sens.x_jac @ iso.vectors.T
    if x_semi.shape[1] != sym.shape[0]:
        raise DimensionError(
            "matrix order does not match the number of tangent directions")
    q = x_semi @ z                                  # M x A, column gamma
    overlaps = b_vec.T @ q                          # M x A, entry (I, gamma)
    recon = -(overlaps ** 2).T @ m_eig              # A
    residuals = np.abs(mu - recon)
    return SpectralRelation(
        hessian_eigenvalues=m_eig, hessian_eigenvectors=b_vec,
        csm_eigenvalues=mu, csm_eigenvectors=z,
        mixing_vectors=q, reconstruction_residuals=residuals)
