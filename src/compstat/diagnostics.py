"""Structural checks at a solution point: envelope, invariance,
semidefiniteness, rank bounds, conformance, and the separable-constraint
reduction.

Each check returns a CheckReport rather than raising; a failed check
carries its residual and tolerance, a skipped check carries a reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import fd
from .csm import CsmResult, build_omega, from_matrix
from .errors import CompstatError
from .geometry import (IsovectorSet, conformance_tolerance, gcd_apply,
                       prescribe_isovectors, require_null_property, verify_conformance)
from .model import InvarianceGenerator, ProblemModel, _block, _decisions
from .numeric import max_abs
from .sensitivity import SensitivityBundle
from .solver import (SolutionPoint, SolverConfig, newton_solve,
                     projected_hessian_extremes)

# Check tolerances.  A check states one of these, or a literal with a reason
# of its own, and keeps it whichever derivative pipeline produced its inputs.
# Residuals are relative (`matrix_mismatch`, `spectrum_violation`).
ROUNDING_TOL = 1e-8   # symmetry, signs and closed forms at the solved point: the
                      # residual is rounding alone (<= 4.4e-16 in the suites)
IDENTITY_TOL = 1e-6   # identities between matrices assembled from solved Jacobians:
                      # room for a 1e-10 Newton stop amplified by a bordered
                      # system with rcond down to 1.25e-4 (efficient_portfolio)
STENCIL_TOL = 1e-5    # envelope, and invariance on central-difference Jacobians, whose
                      # nested-stencil Hessians alone carry STEP_NESTED**2 = 1.5e-8
SEMIDEFINITE_TOL = 1e-7   # sign and symmetry of a recipe or derived matrix, relative to
                          # its largest eigenvalue: central-difference Jacobians leave up
                          # to 3.3e-10 in the catalog (principal_agent omega_eq7)


@dataclass(frozen=True)
class CheckReport:
    name: str
    verdict: str                      # "pass" | "fail" | "skipped"
    residual: Optional[float]
    tolerance: Optional[float]
    claim: str                        # machine-readable tag of the property checked
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def report(name, claim, residual, tolerance, **details) -> CheckReport:
    """A check whose verdict is pass exactly when residual <= tolerance."""
    verdict = "pass" if residual <= tolerance else "fail"
    return CheckReport(name=name, verdict=verdict, residual=float(residual),
                       tolerance=float(tolerance), claim=claim, details=details)


def _skipped(name, claim, reason) -> CheckReport:
    return CheckReport(name=name, verdict="skipped", residual=None, tolerance=None,
                       claim=claim, details={"reason": reason})


def check_envelope(model: ProblemModel, sol: SolutionPoint, iso: IsovectorSet,
                   sens: SensitivityBundle,
                   solver_config: SolverConfig = SolverConfig(),
                   tol: float = STENCIL_TOL) -> CheckReport:
    """Directional derivatives of the value function along each tangent row
    must match the partial effect on the objective with decisions frozen;
    when the rows also annihilate the objective, both must vanish.

    Row t takes the central difference of the value at a +/- h t, with
    h = STEP_FIRST max(1, max|a|) / max|t|.  With a closed form, a row costs
    two closed-form values: `analytic_solution` and then the objective at
    each point; `sens` is not read.  Without one, it costs two Newton
    re-solves, each started at the tangent prediction x +/- h (dx/da) t of
    `sens` (the Euler predictor of continuation), not at x: it is already
    within O(h^2) of the root and usually needs one step or none.  The start
    moves only where Newton begins; the re-solve still converges to the
    stencil tolerance of `solver_config.stencil()`.  A point that cannot be
    evaluated, or a re-solve that does not converge, skips the check.
    """
    a, vectors = sol.a, iso.vectors
    closed_form = model.analytic_solution
    stencil_config = solver_config.stencil()

    def closed_form_value(b):
        x, _ = closed_form(b)
        return _block(model, "value", None, _decisions(model, x), b)

    def resolved_value(b, x_start):
        point = newton_solve(model, b, x_start, stencil_config)
        if not point.converged:
            raise CompstatError("stencil solve did not converge")
        return point.blocks.f

    fa = sol.blocks.fa
    scale = max(1.0, max_abs(a))
    steps = fd.STEP_FIRST * scale / np.maximum(np.abs(vectors).max(axis=1), 1e-12)
    shifts = steps[:, None] * vectors
    v_plus, v_minus, f_dir = np.empty(iso.count), np.empty(iso.count), np.empty(iso.count)
    for alpha in range(iso.count):
        t, shift = vectors[alpha], shifts[alpha]
        # a fresh array per stencil point, and one dot product per row:
        # OpenBLAS rounds dot products by operand alignment, so rows of one
        # stacked array of points could move the last bit of a model value
        try:
            if closed_form is not None:
                v_plus[alpha] = closed_form_value(a + shift)
                v_minus[alpha] = closed_form_value(a - shift)
            else:
                dx = steps[alpha] * (sens.x_jac @ t)
                v_plus[alpha] = resolved_value(a + shift, sol.x + dx)
                v_minus[alpha] = resolved_value(a - shift, sol.x - dx)
        except CompstatError as exc:
            failure = ("point could not be evaluated" if closed_form is not None
                       else "did not converge")
            return _skipped("envelope", "envelope-identity",
                            f"stencil {failure} along direction {alpha}: {exc}")
        f_dir[alpha] = float(t @ fa)
    v_dir = (v_plus - v_minus) / (2.0 * steps)
    residual = max_abs(v_dir - f_dir) if iso.count else 0.0
    if iso.annihilates_objective:
        residual = max(residual, max_abs(v_dir) if iso.count else 0.0)
    min_curv, max_curv = projected_hessian_extremes(model, sol)
    return report("envelope", "envelope-identity", residual, tol,
                  value_directional=v_dir,
                  objective_directional=f_dir,
                  annihilates_objective=iso.annihilates_objective,
                  tangent_hessian_range=[min_curv, max_curv])


def check_invariance(model: ProblemModel, gen: InvarianceGenerator,
                     sol: SolutionPoint, sens: SensitivityBundle,
                     tol: float = STENCIL_TOL) -> CheckReport:
    """Residual of X(x(a)) - sum_mu A_mu(a) dx/da_mu = 0."""
    X = np.asarray(gen.X_map(sol.x), dtype=float)
    A = np.asarray(gen.A_map(sol.a), dtype=float)
    residual_vec = X - sens.x_jac @ A
    residual = max_abs(residual_vec) / max(1.0, max_abs(sol.x))
    return report(f"invariance[{gen.name}]", "decision-invariance", residual, tol,
                  residual_vector=residual_vec)


def check_conformance(sol: SolutionPoint, sens: SensitivityBundle,
                      iso: IsovectorSet) -> CheckReport:
    """The compensated decision columns must be orthogonal to every
    decision-space constraint gradient, to the bound of
    `geometry.conformance_tolerance`, which scales with both."""
    x_semi = gcd_apply(iso, sens.x_jac)
    grads = sol.blocks.Gx
    table, _ = verify_conformance(x_semi, grads)
    return report("conformance", "constraint-conformance",
                  max_abs(table) if table.size else 0.0, conformance_tolerance(x_semi, grads))


def spectrum_violation(eig: np.ndarray, sign: str) -> float:
    """Relative amount by which the ascending spectrum `eig` crosses to the
    wrong side of zero for a `sign` ("positive" or "negative") semidefinite
    matrix.

    The 1e-9 floor on the scale keeps numerically-zero matrices
    (legitimately rank-0 cases) from reporting rounding noise as an
    order-one violation.
    """
    if sign not in ("positive", "negative"):
        raise ValueError(f"unknown expected sign {sign!r}")
    if eig.size == 0:
        return 0.0
    bad = -float(eig[0]) if sign == "positive" else float(eig[-1])
    return max(0.0, bad) / max(max_abs(eig), 1e-9)


def min_eig_violation(matrix: np.ndarray, sign: str) -> float:
    """Relative amount by which the spectrum of the symmetrized matrix
    crosses to the wrong side (see `spectrum_violation`)."""
    sym = 0.5 * (matrix + matrix.T)
    return spectrum_violation(np.linalg.eigvalsh(sym) if sym.size else np.zeros(0), sign)


def matrix_mismatch(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max-norm difference scaled by the size of the expected matrix."""
    expected = np.asarray(expected, dtype=float)
    if not expected.size:
        return 0.0
    return max_abs(np.asarray(actual, dtype=float) - expected) / max(1.0, max_abs(expected))


def check_semidefinite(matrix: Union[np.ndarray, CsmResult], expected_sign: str,
                       tol: float = ROUNDING_TOL,
                       symmetry_tol: float = ROUNDING_TOL,
                       name: str = "semidefinite") -> CheckReport:
    """Symmetry plus one-sided spectrum of the symmetrized matrix.

    expected_sign is "positive" or "negative"; the eigenvalue test is
    relative to the largest eigenvalue magnitude, and a zero matrix passes.
    The symmetry residual is held to symmetry_tol * max(1, max|eigenvalue|),
    the bound the details report as `symmetry_tol`.
    """
    if not isinstance(matrix, CsmResult):
        matrix = from_matrix(matrix, name)
    sym_res, eig = matrix.symmetry_residual, matrix.eigenvalues
    sym_tol = symmetry_tol * max(1.0, max_abs(eig) if eig.size else 0.0)
    rep = report(name, f"{expected_sign}-semidefinite",
                 spectrum_violation(eig, expected_sign), tol,
                 eigenvalues=eig, symmetry_residual=sym_res, symmetry_tol=sym_tol)
    if rep.passed and sym_res > sym_tol:
        return report(name, "symmetry-prerequisite", sym_res, sym_tol,
                      eigenvalues=eig, symmetry_residual=sym_res, symmetry_tol=sym_tol)
    return rep


def check_rank_bound(csm: CsmResult, M: int, K: int, A: Optional[int] = None,
                     name: str = "rank_bound") -> CheckReport:
    """rank(matrix) must not exceed min(M - K, order) with the order defaulting
    to the matrix size."""
    bound = min(M - K, A if A is not None else csm.order)
    rank = csm.rank_estimate
    return report(name, "rank-bound", rank, bound, rank=rank, bound=bound,
                  eigenvalues=csm.eigenvalues)


def check_hatta_reduction(model: ProblemModel, sol: SolutionPoint,
                          sens: SensitivityBundle, iso: Optional[IsovectorSet] = None,
                          omega: Optional[CsmResult] = None) -> CheckReport:
    """For constraints of the separable form a_kappa - k(x, rest) = 0, the
    compensation rows built from the k-gradients must reproduce the main
    recipe entry for entry.

    `omega` is the main recipe the caller built on `iso`, if any.  When
    `iso` holds prescribed, independent rows equal to the compensation rows
    bit for bit, `omega` is the matrix those rows would build, and the rows
    are only held to the null property; otherwise the main recipe is built
    again on them."""
    if model.separable_kappa is None:
        return _skipped("hatta_reduction", "separable-constraint-reduction",
                        "model does not declare separable constraint parameters")
    kappa = tuple(model.separable_kappa)
    if len(kappa) != model.K:
        return _skipped("hatta_reduction", "separable-constraint-reduction",
                        "separable slots do not match the constraint count")
    ga = sol.blocks.Ga
    for l in range(model.K):
        expected = np.zeros(model.K)
        expected[l] = 1.0
        if max_abs(ga[l, list(kappa)] - expected) > 1e-8:
            return _skipped("hatta_reduction", "separable-constraint-reduction",
                            f"constraint {l} is not linear-separable in its slot")
    p_slots = [mu for mu in range(model.N) if mu not in kappa]
    k_grads = -ga[:, p_slots]                       # K x len(p_slots), dk_l/dp
    rows = np.zeros((len(p_slots), model.N))
    rows[np.arange(len(p_slots)), p_slots] = 1.0
    rows[:, list(kappa)] = k_grads.T
    if (omega is not None and iso is not None and iso.basis_kind == "prescribed"
            and not iso.redundant and np.array_equal(rows, iso.vectors)):
        require_null_property(rows, ga)
        omega_ref = omega.matrix
    else:
        omega_ref = build_omega(model, sol, sens, prescribe_isovectors(rows, ga)).matrix
    # independent assembly: compensated decision columns and p-slot brackets
    x_comp = sens.x_jac[:, p_slots] + sens.x_jac[:, list(kappa)] @ k_grads
    lxa = sol.blocks.lagrangian_hess_xa(sol.lam)
    display = lxa[:, p_slots].T @ x_comp
    return report("hatta_reduction", "separable-constraint-reduction",
                  matrix_mismatch(display, omega_ref), IDENTITY_TOL, rows=rows)
