"""Interior solutions of the first-order system by damped Newton iteration.

The stacked residual is [grad_x f + sum_k lam_k grad_x g_k ; g] = 0; its
root gives the decision functions x(a) and multipliers lam(a).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError, RankDeficiencyError
from .model import ProblemModel


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100
    max_backtracks: int = 30
    rank_rtol: float = 1e-10
    cross_check_newton: bool = True

    def stencil(self) -> "SolverConfig":
        """The configuration of the re-solves inside a finite-difference
        stencil: tightened to at most 1e-12 and without the Newton
        cross-check of a closed form; every other field is kept."""
        return replace(self, tol=min(self.tol, 1e-12), cross_check_newton=False)


@dataclass(frozen=True)
class SolutionPoint:
    a: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    source: str  # "newton" | "analytic"
    newton_discrepancy: Optional[float] = None


def recover_multipliers(model: ProblemModel, x, a, rank_rtol: float = 1e-10):
    """Least-squares multipliers from grad_x f = -sum_k lam_k grad_x g_k.

    Returns (lam, residual) where the residual is the norm of the component
    of grad_x f outside the span of the constraint gradients; it vanishes
    exactly at a first-order point.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    fx = model.obj_grad_x(x, a)
    if model.K == 0:
        return np.zeros(0), float(np.linalg.norm(fx))
    Gx = model.con_grad_x_stack(x, a)  # K x M
    svals = np.linalg.svd(Gx, compute_uv=False)
    if svals[-1] <= rank_rtol * svals[0]:
        raise RankDeficiencyError(
            f"constraint gradients of {model.name!r} are linearly dependent "
            f"(singular values {svals})")
    lam, *_ = np.linalg.lstsq(Gx.T, -fx, rcond=None)
    residual = float(np.linalg.norm(fx + Gx.T @ lam))
    return lam, residual


def _kkt_residual(model: ProblemModel, x, a, lam) -> np.ndarray:
    top = model.lagrangian_grad_x(x, a, lam)
    if model.K == 0:
        return top
    return np.concatenate([top, model.g_all(x, a)])


def bordered_matrix(Lxx: np.ndarray, Gx: np.ndarray) -> np.ndarray:
    """The bordered matrix [L_xx, G_x^T; G_x, 0]; L_xx itself when G_x has
    no rows (no constraints)."""
    M, K = Lxx.shape[0], Gx.shape[0]
    if K == 0:
        return Lxx
    mat = np.zeros((M + K, M + K))
    mat[:M, :M] = Lxx
    mat[:M, M:] = Gx.T
    mat[M:, :M] = Gx
    return mat


def newton_solve(model: ProblemModel, a, x0, config: SolverConfig = SolverConfig()):
    """Damped Newton on the stacked first-order system; backtracks on the
    residual norm.  Returns a SolutionPoint flagged non-converged instead of
    silently returning a bad answer when the iteration cap is reached."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    lam, _ = recover_multipliers(model, x, a, config.rank_rtol)
    res = _kkt_residual(model, x, a, lam)
    res_norm = float(np.max(np.abs(res)))
    iterations = 0
    while res_norm > config.tol and iterations < config.max_iter:
        mat = bordered_matrix(model.lagrangian_hess_xx(x, a, lam),
                              model.con_grad_x_stack(x, a))
        try:
            step = scipy.linalg.solve(mat, -res)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"singular Newton system for {model.name!r} at iteration {iterations}") from exc
        if not np.all(np.isfinite(step)):
            raise RankDeficiencyError(
                f"non-finite Newton step for {model.name!r} at iteration {iterations}")
        scale = 1.0
        for _ in range(config.max_backtracks + 1):
            x_try = x + scale * step[:model.M]
            lam_try = lam + scale * step[model.M:]
            try:
                res_try = _kkt_residual(model, x_try, a, lam_try)
                norm_try = float(np.max(np.abs(res_try)))
                if not np.isfinite(norm_try):
                    norm_try = np.inf
            except Exception:
                norm_try = np.inf
            if norm_try < res_norm:
                break
            scale *= 0.5
        else:
            break  # no descent direction left; stop and report
        x, lam, res, res_norm = x_try, lam_try, res_try, norm_try
        iterations += 1
    return SolutionPoint(
        a=a, x=x, lam=lam,
        kkt_residual=res_norm,
        iterations=iterations,
        converged=bool(res_norm <= config.tol),
        source="newton",
    )


def solve_interior(model: ProblemModel, a, x0=None,
                   config: SolverConfig = SolverConfig()) -> SolutionPoint:
    """Solution at parameter point a.

    A registered analytic solution is authoritative; Newton then runs as a
    cross-check (started from the analytic point) and the max-norm
    discrepancy is reported on the result.
    """
    a = np.asarray(a, dtype=float)
    if model.analytic_solution is not None:
        x, lam = model.analytic_solution(a)
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        residual = float(np.max(np.abs(_kkt_residual(model, x, a, lam))))
        discrepancy = None
        if config.cross_check_newton:
            start = x if x0 is None else np.asarray(x0, dtype=float)
            newton = newton_solve(model, a, start, config)
            if newton.converged:
                discrepancy = float(np.max(np.abs(newton.x - x)))
        return SolutionPoint(
            a=a, x=x, lam=lam,
            kkt_residual=residual,
            iterations=0,
            converged=bool(residual <= config.tol),
            source="analytic",
            newton_discrepancy=discrepancy,
        )
    if x0 is None:
        raise NonConvergenceError(
            f"model {model.name!r} has no analytic solution; an initial point is required")
    return newton_solve(model, a, x0, config)


def projected_hessian_extremes(model: ProblemModel, sol: SolutionPoint):
    """Eigenvalue range of the Lagrangian Hessian restricted to the
    decision-space tangent hyperplane (second-order necessary condition:
    the maximum must be nonpositive at a constrained maximum)."""
    Lxx = model.lagrangian_hess_xx(sol.x, sol.a, sol.lam)
    if model.K == 0:
        basis = np.eye(model.M)
    else:
        Gx = model.con_grad_x_stack(sol.x, sol.a)
        basis = scipy.linalg.null_space(Gx)
    if basis.shape[1] == 0:
        return 0.0, 0.0
    proj = basis.T @ Lxx @ basis
    eig = np.linalg.eigvalsh(0.5 * (proj + proj.T))
    return float(eig[0]), float(eig[-1])
