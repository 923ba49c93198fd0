"""Interior solutions of the first-order system by damped Newton iteration.

The stacked residual is [grad_x f + sum_k lam_k grad_x g_k ; g] = 0; its
root gives the decision functions x(a) and multipliers lam(a).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import (CompstatError, ConstraintQualificationError, DegeneracyError,
                     EvaluationError, NonConvergenceError)
from .model import Blocks, ProblemModel, _read_only
from .numeric import max_abs

MAX_BACKTRACKS = 30     # step halvings per Newton iteration
INDEPENDENCE_RTOL = 1e-6  # relative singular-value floor of the unit-length constraint rows
EPS = np.finfo(float).eps  # rcond floor below which a Newton step warns
EULER_REACH = 0.5       # largest grid step, relative to each parameter, an Euler prediction spans


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

    @functools.cached_property
    def constraint_svd(self) -> tuple:
        """(lengths, W, S, V^T): the row lengths of G_x (K > 0) and the thin
        SVD D G_x = W S V^T of its rows scaled to unit length, taken once.
        Raises a ConstraintQualificationError when a row vanishes or is not
        finite, or when the rows are dependent: S_min <= INDEPENDENCE_RTOL
        S_max.  Multiplying a constraint by a constant changes no verdict."""
        name, gx = self.blocks.model.name, self.blocks.Gx
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(gx, axis=1)
        if not (np.isfinite(lengths).all() and lengths.all()):
            raise ConstraintQualificationError(
                f"constraint gradients of {name!r} vanish or are not finite")
        w, svals, vt = np.linalg.svd(gx / lengths[:, None], full_matrices=False)
        if svals[-1] <= INDEPENDENCE_RTOL * svals[0]:
            raise ConstraintQualificationError(
                f"constraint gradients of {name!r} are linearly dependent "
                f"(singular values {svals} of the unit-length rows)")
        return lengths, w, svals, vt

    @functools.cached_property
    def lxx(self) -> np.ndarray:
        """L_xx at (x, lam), M x M, formed once (read-only)."""
        return _read_only(self.blocks.lagrangian_hess_xx(self.lam))

    @functools.cached_property
    def lxa(self) -> np.ndarray:
        """L_xa at (x, lam), M x N, formed once (read-only)."""
        return _read_only(self.blocks.lagrangian_hess_xa(self.lam))

    @functools.cached_property
    def bordered(self) -> BorderedFactor:
        """The factor of the bordered matrix [L_xx, G_x^T; G_x, 0] at (x, lam),
        factored once: the gate of a regular strict constrained maximum (Gould
        1985; Nocedal & Wright, Thm 16.3).  It reads `constraint_svd` (K > 0),
        then raises a DegeneracyError unless the inertia is (K, M, 0)."""
        model = self.blocks.model
        factor = factor_bordered(bordered_matrix(self.lxx, self.blocks.Gx),
                                 lambda: f"bordered matrix for {model.name!r}")
        if model.K:
            self.constraint_svd
        found, expected = factor.inertia(), (model.K, model.M, 0)
        if found != expected:
            kind = "singular" if found[2] else "not a strict constrained maximum:"
            raise DegeneracyError(
                f"{kind} bordered matrix for {model.name!r} has inertia "
                f"(positive, negative, zero) = {found}, expected {expected}")
        return factor


def _multipliers(blocks: Blocks, lam0=None) -> np.ndarray:
    """The start multipliers `lam0`, or without them the minimum-norm
    least-squares multipliers from grad_x f = -sum_k lam_k grad_x g_k, at
    any start point; a solution's gate decides whether the constraint
    gradients are independent (`SolutionPoint.constraint_svd`).  Either way
    a non-finite x-gradient raises an EvaluationError."""
    if blocks.model.K == 0:
        return np.zeros(0)
    fx, Gx = blocks.fx, blocks.Gx  # M, K x M
    if not (np.isfinite(fx).all() and np.isfinite(Gx).all()):
        raise EvaluationError(
            f"non-finite objective or constraint x-gradient of {blocks.model.name!r}")
    if lam0 is not None:
        return np.asarray(lam0, dtype=float)
    return np.linalg.lstsq(Gx.T, -fx, rcond=None)[0]


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


class BorderedFactor(NamedTuple):
    """dsytrf's factor and pivots (upper storage) and dsycon's rcond, the
    estimated reciprocal 1-norm condition number, of `factor_bordered`."""
    factor: np.ndarray
    pivots: np.ndarray
    rcond: float

    def solve(self, rhs: np.ndarray, label):
        """dsytrs's solution of mat @ solution = rhs; None when it is not
        finite (a singular matrix).  Raises an EvaluationError naming
        `label()` when `rhs` is not finite."""
        if not np.isfinite(rhs).all():
            raise EvaluationError(f"non-finite {label()}")
        solution, _ = scipy.linalg.lapack.dsytrs(self.factor, self.pivots, rhs)
        return solution if np.isfinite(solution).all() else None

    def inertia(self) -> tuple:
        """(positive, negative, zero) eigenvalue counts of the matrix, those of
        D by Sylvester's law.  Both rows of a 2 x 2 block of D carry a negative
        pivot (adjacent blocks may carry equal ones), and the Bunch-Kaufman
        pivot test makes its determinant negative: one eigenvalue of each
        sign.  A row with a positive pivot is a 1 x 1 block."""
        d = self.factor.diagonal()[self.pivots > 0]         # the 1 x 1 blocks
        pairs = (len(self.pivots) - len(d)) // 2
        return pairs + int((d > 0).sum()), pairs + int((d < 0).sum()), int((d == 0).sum())


def factor_bordered(mat: np.ndarray, label) -> BorderedFactor:
    """dsytrf (with the workspace dsytrf_lwork recommends, cached per order)
    and dsycon of the upper triangle of the symmetric `mat`.  Raises an
    EvaluationError naming `label()` when `mat` is not finite."""
    if not np.isfinite(mat).all():
        raise EvaluationError(f"non-finite {label()}")
    lapack = scipy.linalg.lapack
    factor, pivots, _ = lapack.dsytrf(mat, lwork=_dsytrf_lwork(mat.shape[0]))
    rcond, _ = lapack.dsycon(factor, pivots, lapack.dlange("1", mat))
    return BorderedFactor(factor, pivots, rcond)


def newton_solve(model: ProblemModel, a, x0, config: SolverConfig = SolverConfig(),
                 lam0=None, factor: Optional[BorderedFactor] = None):
    """Damped Newton on the stacked first-order system, started at x0 and at
    the multipliers `lam0` (finite, shape (K,)), or without them at the
    least-squares multipliers of x0; backtracks on the residual norm.  A
    trial point whose evaluation raises a CompstatError or an
    ArithmeticError counts as an infinite residual; any other exception
    propagates.  Returns a SolutionPoint flagged non-converged instead of
    silently returning a bad answer when the iteration cap is reached.

    Given `factor`, the factor of the bordered matrix at a nearby point (a
    solution's gate, `SolutionPoint.bordered`), it first takes chord steps
    on it (simplified Newton; Kelley, *Iterative Methods for Linear and
    Nonlinear Equations*, 1995, ch. 5): one residual evaluation and one
    dsytrs each, no Hessian and no factorization.  Each full step must bring
    the max-norm residual below half of what it was.  At the first that
    does not, or whose point cannot be evaluated, the chord steps are
    discarded and the solve starts again without `factor`, so it returns
    what the solve without `factor` returns unless the chord converges."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    blocks = Blocks(model, x, a)
    lam = _multipliers(blocks, lam0)
    res = _kkt_residual(blocks, lam)
    res_norm = max_abs(res)

    def label():                    # built only for an error message
        return f"Newton system for {model.name!r} at iteration {iterations}"
    start, chord, iterations = (x, lam, res, res_norm, blocks), factor, 0
    while res_norm > config.tol and iterations < config.max_iter:
        if chord is None:
            factor = factor_bordered(
                bordered_matrix(blocks.lagrangian_hess_xx(lam), blocks.Gx), label)
        step = factor.solve(-res, label)
        if step is None:
            raise DegeneracyError(f"singular {label()}")
        if not factor.rcond >= EPS:     # no iteration number: a repeat is shown once
            warnings.warn(f"ill-conditioned Newton system for {model.name!r} "
                          f"(rcond = {factor.rcond!r})", scipy.linalg.LinAlgWarning)
        # a chord step is taken whole and must halve the residual
        bound, tries = (res_norm, MAX_BACKTRACKS + 1) if chord is None else (0.5 * res_norm, 1)
        scale = 1.0
        for _ in range(tries):
            x_try = x + scale * step[:model.M]
            lam_try = lam + scale * step[model.M:]
            trial = Blocks(model, x_try, a)
            try:
                res_try = _kkt_residual(trial, lam_try)
                norm_try = max_abs(res_try)     # a NaN never descends, like inf
            except (CompstatError, ArithmeticError):
                norm_try = np.inf
            if norm_try < bound:
                break
            scale *= 0.5
        else:
            if chord is None:
                break  # no descent direction left; stop and report
            (x, lam, res, res_norm, blocks), chord, iterations = start, None, 0
            continue
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


def _start_residual(blocks: Blocks) -> float:
    """The max-norm KKT residual that `newton_solve` started at blocks.x begins with."""
    return max_abs(_kkt_residual(blocks, _multipliers(blocks)))


def _continuation_start(model: ProblemModel, a, x0, previous, x_jac, tol: float):
    """The Euler prediction x_cf(previous) + x_jac(previous) (a - previous) of
    the closed form x_cf at a, or x_cf(previous) without `x_jac` (Allgower &
    Georg, *Numerical Continuation Methods*, 1990), where it is a better
    Newton start than x0 that still leaves Newton work to do; x0 otherwise:
    - when the step moves a parameter by more than EULER_REACH of its value
      at `previous`, beyond where a first-order prediction is local;
    - when the prediction cannot be evaluated, or it, the objective there
      or its KKT residual is not finite (the residual alone does not see a
      prediction that leaves the objective's domain);
    - when that residual meets `tol`, or is not below x0's.
    The prediction is a probe: its floating-point warnings are not shown,
    and x0's are shown as Newton's start would show them.  Returns `x0`
    itself, not a copy, so that a caller can tell which start it got: a
    prediction lies near the closed form, where `solve_interior` takes chord
    steps on the gate's factor."""
    previous = np.asarray(previous, dtype=float)
    if not (np.abs(a - previous) <= EULER_REACH * np.abs(previous)).all():
        return x0
    try:
        with np.errstate(all="ignore"):
            guess = np.asarray(model.analytic_solution(previous)[0], dtype=float)
            if x_jac is not None:
                guess = guess + np.asarray(x_jac(previous), dtype=float) @ (a - previous)
            blocks = Blocks(model, guess, a)
            blocks.f        # raises unless finite
            norm = _start_residual(blocks)
        if not tol < norm < _start_residual(Blocks(model, x0, a)):
            return x0
    except (CompstatError, ArithmeticError):
        return x0
    return guess


def solve_interior(model: ProblemModel, a, x0=None,
                   config: SolverConfig = SolverConfig(), previous=None,
                   x_jac=None) -> SolutionPoint:
    """Solution at parameter point a.

    A registered analytic solution is authoritative; Newton then runs as a
    cross-check and the max-norm discrepancy is reported on the result.
    The cross-check starts from the caller's `x0` when one is given (the
    catalog's start point), which keeps it independent of the closed form,
    and from the closed-form point only when `x0` is None; started there,
    it takes no iteration and verifies nothing beyond the residual.  Given
    `x0` and `previous`, the preceding point of a sweep, it starts from the
    closed form's Euler prediction from `previous` along `x_jac`, the
    registered decision Jacobian (None: no step), where `_continuation_start`
    finds that a better start than `x0`.  Started there, at a closed form
    that converged, the cross-check takes chord steps on the returned
    point's gate `bordered` (see `newton_solve`), which caches the factor
    for the caller's gate, so the point is still factored once; where the
    gate refuses, the cross-check runs without it and the caller's gate
    raises the same error.  A cross-check from `x0` is plain Newton.
    """
    a = np.asarray(a, dtype=float)
    if model.analytic_solution is not None:
        x, lam = model.analytic_solution(a)
        x = np.asarray(x, dtype=float)
        lam = np.asarray(lam, dtype=float)
        blocks = Blocks(model, x, a)
        residual = max_abs(_kkt_residual(blocks, lam))
        point = SolutionPoint(
            a=a, x=x, lam=lam,
            kkt_residual=residual,
            iterations=0,
            converged=bool(residual <= config.tol),
            source="analytic",
            blocks=blocks,
        )
        start = x if x0 is None else np.asarray(x0, dtype=float)
        factor = None
        if x0 is not None and previous is not None:
            predicted = _continuation_start(model, a, start, previous, x_jac, config.tol)
            if predicted is not start and point.converged:
                try:
                    factor = point.bordered
                except (CompstatError, ArithmeticError):
                    pass    # the caller's gate raises it again
            start = predicted
        newton = newton_solve(model, a, start, config, factor=factor)
        # set in place: a rebuilt point would drop the cached gate
        object.__setattr__(point, "newton_discrepancy",
                           max_abs(newton.x - x) if newton.converged else None)
        return point
    if x0 is None:
        raise NonConvergenceError(
            f"model {model.name!r} has no analytic solution; an initial point is required")
    return newton_solve(model, a, x0, config)
