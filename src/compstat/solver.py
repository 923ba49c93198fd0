"""Interior solutions of the first-order system by damped Newton iteration.

The stacked residual is [grad_x f + sum_k lam_k grad_x g_k ; g] = 0; its
root gives the decision functions x(a) and multipliers lam(a).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (CompstatError, EvaluationError, NonConvergenceError,
                     RankDeficiencyError)
from .model import Blocks, ProblemModel
from .numeric import max_abs

MAX_BACKTRACKS = 30     # step halvings per Newton iteration
RANK_RTOL = 1e-10       # relative singular-value floor of the constraint gradients
EPS = np.finfo(float).eps  # rcond floor below which a Newton step warns


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 100

    def stencil(self) -> "SolverConfig":
        """The configuration of the Newton re-solves inside a
        finite-difference stencil: tightened to at most 1e-12; every other
        field is kept."""
        return replace(self, tol=min(self.tol, 1e-12))


@dataclass(frozen=True)
class SolutionPoint:
    a: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    source: str  # "newton" | "analytic"
    blocks: Blocks = field(repr=False, compare=False)   # the model's blocks at (x, a)
    newton_discrepancy: Optional[float] = None


def _multipliers(blocks: Blocks) -> np.ndarray:
    """Least-squares multipliers from grad_x f = -sum_k lam_k grad_x g_k;
    raises when the constraint gradients are linearly dependent."""
    if blocks.model.K == 0:
        return np.zeros(0)
    fx, Gx = blocks.fx, blocks.Gx  # M, K x M
    if not (np.isfinite(fx).all() and np.isfinite(Gx).all()):
        raise EvaluationError(
            f"non-finite objective or constraint x-gradient of {blocks.model.name!r}")
    # one SVD-based LAPACK call: lstsq also returns the singular values of Gx
    lam, _, _, svals = np.linalg.lstsq(Gx.T, -fx, rcond=None)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficiencyError(
            f"constraint gradients of {blocks.model.name!r} are linearly dependent "
            f"(singular values {svals})")
    return lam


def _kkt_residual(blocks: Blocks, lam) -> np.ndarray:
    return np.concatenate([blocks.lagrangian_grad_x(lam), blocks.g])


def bordered_matrix(Lxx: np.ndarray, Gx: np.ndarray) -> np.ndarray:
    """The bordered matrix [L_xx, G_x^T; G_x, 0], with L_xx symmetrized as
    0.5 (L_xx + L_xx^T); that symmetrized L_xx itself when G_x has no rows
    (no constraints).  An exactly symmetric L_xx keeps its bits."""
    M, K = Lxx.shape[0], Gx.shape[0]
    Lxx = 0.5 * (Lxx + Lxx.T)
    if K == 0:
        return Lxx
    mat = np.zeros((M + K, M + K))
    mat[:M, :M] = Lxx
    mat[:M, M:] = Gx.T
    mat[M:, :M] = Gx
    return mat


@functools.lru_cache(maxsize=None)
def _dsytrf_lwork(order: int) -> int:
    """The dsytrf workspace dsytrf_lwork recommends for a matrix of `order`."""
    return int(scipy.linalg.lapack.dsytrf_lwork(order)[0])


def solve_bordered(mat: np.ndarray, rhs: np.ndarray, label):
    """(solution, rcond) of the symmetric system mat @ solution = rhs from
    one Bunch-Kaufman factorization: dsytrf (with the workspace dsytrf_lwork
    recommends, cached per order), dsycon and dsytrs.  Only the upper
    triangle of `mat` is read.  rcond is LAPACK's estimate of the reciprocal
    1-norm condition number.  The solution is None when `mat` is singular:
    an exactly zero pivot or a non-finite solution.  Raises an
    EvaluationError naming `label()` when `mat` or `rhs` is not finite."""
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise EvaluationError(f"non-finite {label()}")
    lapack = scipy.linalg.lapack
    factor, pivots, info = lapack.dsytrf(mat, lwork=_dsytrf_lwork(mat.shape[0]))
    if info != 0:
        return None, 0.0
    rcond, _ = lapack.dsycon(factor, pivots, lapack.dlange("1", mat))
    solution, _ = lapack.dsytrs(factor, pivots, rhs)
    if not np.isfinite(solution).all():
        return None, rcond
    return solution, rcond


def newton_solve(model: ProblemModel, a, x0, config: SolverConfig = SolverConfig()):
    """Damped Newton on the stacked first-order system; backtracks on the
    residual norm.  A trial point whose evaluation raises a CompstatError or
    an ArithmeticError counts as an infinite residual; any other exception
    propagates.  Returns a SolutionPoint flagged non-converged instead of
    silently returning a bad answer when the iteration cap is reached."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    blocks = Blocks(model, x, a)
    lam = _multipliers(blocks)
    res = _kkt_residual(blocks, lam)
    res_norm = max_abs(res)

    def label():                    # built only for an error message
        return f"Newton system for {model.name!r} at iteration {iterations}"
    iterations = 0
    while res_norm > config.tol and iterations < config.max_iter:
        mat = bordered_matrix(blocks.lagrangian_hess_xx(lam), blocks.Gx)
        step, rcond = solve_bordered(mat, -res, label)
        if step is None:
            raise RankDeficiencyError(f"singular {label()}")
        if not rcond >= EPS:        # no iteration number: a repeat is shown once
            warnings.warn(f"ill-conditioned Newton system for {model.name!r} "
                          f"(rcond = {rcond!r})", scipy.linalg.LinAlgWarning)
        scale = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            x_try = x + scale * step[:model.M]
            lam_try = lam + scale * step[model.M:]
            trial = Blocks(model, x_try, a)
            try:
                res_try = _kkt_residual(trial, lam_try)
                norm_try = max_abs(res_try)     # a NaN never descends, like inf
            except (CompstatError, ArithmeticError):
                norm_try = np.inf
            if norm_try < res_norm:
                break
            scale *= 0.5
        else:
            break  # no descent direction left; stop and report
        x, lam, res, res_norm, blocks = x_try, lam_try, res_try, norm_try, trial
        iterations += 1
    return SolutionPoint(
        a=a, x=x, lam=lam,
        kkt_residual=res_norm,
        iterations=iterations,
        converged=bool(res_norm <= config.tol),
        source="newton",
        blocks=blocks,
    )


def solve_interior(model: ProblemModel, a, x0=None,
                   config: SolverConfig = SolverConfig()) -> SolutionPoint:
    """Solution at parameter point a.

    A registered analytic solution is authoritative; Newton then runs as a
    cross-check and the max-norm discrepancy is reported on the result.
    The cross-check starts from the caller's `x0` when one is given (the
    catalog's start point), which keeps it independent of the closed form,
    and from the closed-form point only when `x0` is None; started there,
    it takes no iteration and verifies nothing beyond the residual.
    """
    a = np.asarray(a, dtype=float)
    if model.analytic_solution is not None:
        x, lam = model.analytic_solution(a)
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        blocks = Blocks(model, x, a)
        residual = max_abs(_kkt_residual(blocks, lam))
        start = x if x0 is None else np.asarray(x0, dtype=float)
        newton = newton_solve(model, a, start, config)
        discrepancy = max_abs(newton.x - x) if newton.converged else None
        return SolutionPoint(
            a=a, x=x, lam=lam,
            kkt_residual=residual,
            iterations=0,
            converged=bool(residual <= config.tol),
            source="analytic",
            blocks=blocks,
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
    return tangent_extremes(sol.blocks.lagrangian_hess_xx(sol.lam), sol.blocks.Gx)[:2]


def tangent_extremes(matrix: np.ndarray, grads: np.ndarray):
    """(min, max, dim): the extreme eigenvalues of the symmetric part of `matrix`
    on the null space of the rows of `grads` (all of space when there are
    none) and that space's dimension; zeros when the space is empty."""
    basis = scipy.linalg.null_space(grads) if grads.shape[0] else np.eye(matrix.shape[0])
    if basis.shape[1] == 0:
        return 0.0, 0.0, 0
    restricted = basis.T @ matrix @ basis
    eig = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
    return float(eig[0]), float(eig[-1]), basis.shape[1]
