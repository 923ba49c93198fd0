"""Structural checks at a solution point: envelope, invariance,
semidefiniteness, rank bounds, and the separable-constraint reduction.

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
from .geometry import IsovectorSet, prescribe_isovectors
from .model import Blocks, InvarianceGenerator, ProblemModel
from .sensitivity import SensitivityBundle
from .solver import (SolutionPoint, SolverConfig, newton_solve,
                     projected_hessian_extremes)

TOL_ANALYTIC = 1e-8
TOL_FD = 1e-5
HATTA_TOL = 1e-6      # the separable-constraint reduction against the main recipe


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
                   tol: float = TOL_FD) -> CheckReport:
    """Directional derivatives of the value function along each tangent row
    must match the partial effect on the objective with decisions frozen;
    when the rows also annihilate the objective, both must vanish.

    Without a closed form, the value at a +/- h t comes from a Newton
    re-solve started at the tangent prediction x +/- h (dx/da) t of `sens`
    (the Euler predictor of continuation), not at x: it is already within
    O(h^2) of the root and usually needs one step or none.  The start
    moves only where Newton begins; the re-solve still converges to the
    stencil tolerance of `solver_config.stencil()` or the check is skipped.
    """
    a = sol.a
    stencil_config = solver_config.stencil()

    def value_at(b, x_start):
        if model.analytic_solution is not None:
            x, _ = model.analytic_solution(b)
            return Blocks(model, x, b).f
        point = newton_solve(model, b, x_start, stencil_config)
        if not point.converged:
            raise CompstatError("stencil solve did not converge")
        return point.blocks.f

    fa = sol.blocks.fa
    scale = max(1.0, float(np.max(np.abs(a))))
    v_dir = np.empty(iso.count)
    f_dir = np.empty(iso.count)
    for alpha in range(iso.count):
        t = iso.vectors[alpha]
        t_scale = max(float(np.max(np.abs(t))), 1e-12)
        h = fd.STEP_FIRST * scale / t_scale
        dx = h * (sens.x_jac @ t)
        try:
            v_plus = value_at(a + h * t, sol.x + dx)
            v_minus = value_at(a - h * t, sol.x - dx)
        except CompstatError as exc:
            return _skipped("envelope", "envelope-identity",
                            f"stencil did not converge along direction {alpha}: {exc}")
        v_dir[alpha] = (v_plus - v_minus) / (2.0 * h)
        f_dir[alpha] = float(t @ fa)
    residual = float(np.max(np.abs(v_dir - f_dir))) if iso.count else 0.0
    if iso.annihilates_objective:
        residual = max(residual, float(np.max(np.abs(v_dir))) if iso.count else 0.0)
    min_curv, max_curv = projected_hessian_extremes(model, sol)
    return report("envelope", "envelope-identity", residual, tol,
                  value_directional=v_dir.tolist(),
                  objective_directional=f_dir.tolist(),
                  annihilates_objective=iso.annihilates_objective,
                  tangent_hessian_range=[min_curv, max_curv])


def check_invariance(model: ProblemModel, gen: InvarianceGenerator,
                     sol: SolutionPoint, sens: SensitivityBundle,
                     tol: float = TOL_FD) -> CheckReport:
    """Residual of X(x(a)) - sum_mu A_mu(a) dx/da_mu = 0."""
    X = np.asarray(gen.X_map(sol.x), dtype=float)
    A = np.asarray(gen.A_map(sol.a), dtype=float)
    residual_vec = X - sens.x_jac @ A
    scale = max(1.0, float(np.max(np.abs(sol.x))))
    residual = float(np.max(np.abs(residual_vec))) / scale
    return report(f"invariance[{gen.name}]", "decision-invariance", residual, tol,
                  residual_vector=residual_vec.tolist())


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
    return max(0.0, bad) / max(float(np.max(np.abs(eig))), 1e-9)


def min_eig_violation(matrix: np.ndarray, sign: str) -> float:
    """Relative amount by which the spectrum of the symmetrized matrix
    crosses to the wrong side (see `spectrum_violation`)."""
    sym = 0.5 * (matrix + matrix.T)
    return spectrum_violation(np.linalg.eigvalsh(sym) if sym.size else np.zeros(0), sign)


def matrix_mismatch(actual: np.ndarray, expected: np.ndarray) -> float:
    """Max-norm difference scaled by the size of the expected matrix."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 0.0)
    diff = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    return diff / scale


def check_semidefinite(matrix: Union[np.ndarray, CsmResult], expected_sign: str,
                       tol: float = TOL_ANALYTIC,
                       symmetry_tol: float = TOL_ANALYTIC,
                       name: str = "semidefinite") -> CheckReport:
    """Symmetry plus one-sided spectrum of the symmetrized matrix.

    expected_sign is "positive" or "negative"; the eigenvalue test is
    relative to the largest eigenvalue magnitude, and a zero matrix passes.
    """
    if not isinstance(matrix, CsmResult):
        matrix = from_matrix(matrix, name)
    sym_res, eig = matrix.symmetry_residual, matrix.eigenvalues
    top = float(np.max(np.abs(eig))) if eig.size else 0.0
    sym_tol = symmetry_tol * max(1.0, top)
    rep = report(name, f"{expected_sign}-semidefinite",
                 spectrum_violation(eig, expected_sign), tol,
                 eigenvalues=eig.tolist(), symmetry_residual=sym_res)
    if rep.passed and sym_res > sym_tol:
        return report(name, "symmetry-prerequisite", sym_res, sym_tol,
                      eigenvalues=eig.tolist(), symmetry_residual=sym_res)
    return rep


def check_rank_bound(csm: CsmResult, M: int, K: int, A: Optional[int] = None,
                     name: str = "rank_bound") -> CheckReport:
    """rank(matrix) must not exceed min(M - K, order) with the order defaulting
    to the matrix size."""
    bound = min(M - K, A if A is not None else csm.order)
    rank = csm.rank_estimate
    return report(name, "rank-bound", rank, bound, rank=rank, bound=bound,
                  eigenvalues=csm.eigenvalues.tolist())


def check_hatta_reduction(model: ProblemModel, sol: SolutionPoint,
                          sens: SensitivityBundle) -> CheckReport:
    """For constraints of the separable form a_kappa - k(x, rest) = 0, the
    compensation rows built from the k-gradients must reproduce the main
    recipe entry for entry."""
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
        if np.max(np.abs(ga[l, list(kappa)] - expected)) > 1e-8:
            return _skipped("hatta_reduction", "separable-constraint-reduction",
                            f"constraint {l} is not linear-separable in its slot")
    p_slots = [mu for mu in range(model.N) if mu not in kappa]
    k_grads = -ga[:, p_slots]                       # K x len(p_slots), dk_l/dp
    rows = np.zeros((len(p_slots), model.N))
    for idx, mu in enumerate(p_slots):
        rows[idx, mu] = 1.0
        for l in range(model.K):
            rows[idx, kappa[l]] = k_grads[l, idx]
    iso = prescribe_isovectors(rows, ga)
    omega_ref = build_omega(model, sol, sens, iso).matrix
    # independent assembly: compensated decision columns and p-slot brackets
    x_comp = sens.x_jac[:, p_slots] + sens.x_jac[:, list(kappa)] @ k_grads
    lxa = sol.blocks.lagrangian_hess_xa(sol.lam)
    display = lxa[:, p_slots].T @ x_comp
    return report("hatta_reduction", "separable-constraint-reduction",
                  matrix_mismatch(display, omega_ref), HATTA_TOL, rows=rows.tolist())
