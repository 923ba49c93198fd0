"""Parameter Jacobians of the solution: dx/da and dlam/da.

Two routes are provided.  The implicit-function route factorizes the
bordered matrix [L_xx, G_x^T; G_x, 0] once by Bunch-Kaufman, the
factorization Newton's steps also use (`solver.solve_bordered`), and solves
one right-hand side per parameter; it is the default.  The re-solve
finite-difference route is slower but fully independent and serves as the
acceptance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import CompstatError, DegeneracyError, SensitivityError
from .model import ProblemModel
from .solver import (SolutionPoint, SolverConfig, bordered_matrix, newton_solve,
                     solve_bordered)


@dataclass(frozen=True)
class SensitivityBundle:
    x_jac: np.ndarray            # M x N, entry (i, mu) = dx_i/da_mu
    lam_jac: np.ndarray          # K x N
    method: str                  # "fd" | "ift" | "analytic"
    step: Optional[float] = None


def decision_jacobian_fd(model: ProblemModel, a, config: SolverConfig = SolverConfig(),
                         h: Optional[float] = None, x0=None) -> SensitivityBundle:
    """Central differences of re-solved solutions.  A closed form serves
    every stencil point; otherwise each is Newton warm-started from x(a),
    solved here from x0."""
    a = np.asarray(a, dtype=float)
    stencil_config = config.stencil()
    if model.analytic_solution is None:
        base = newton_solve(model, a, np.asarray(x0, dtype=float), stencil_config)
        if not base.converged:
            raise SensitivityError(f"no converged solution at the base point of {model.name!r}")
        x_center = base.x

    def solve_at(b, mu):
        if model.analytic_solution is not None:
            x, lam = model.analytic_solution(b)
            return np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
        try:
            point = newton_solve(model, b, x_center, stencil_config)
        except (CompstatError, ArithmeticError) as exc:
            raise SensitivityError(
                f"stencil solve failed for parameter index {mu} of "
                f"{model.name!r}: {exc}", parameter_index=mu) from exc
        if not point.converged:
            raise SensitivityError(
                f"stencil solve failed for parameter index {mu} of {model.name!r}",
                parameter_index=mu)
        return point.x, point.lam

    x_cols, lam_cols, steps = [], [], []
    for mu in range(model.N):
        step = h if h is not None else fd.step_for(a[mu])
        ap = a.copy(); ap[mu] += step
        am = a.copy(); am[mu] -= step
        xp, lp = solve_at(ap, mu)
        xm, lm = solve_at(am, mu)
        x_cols.append((xp - xm) / (2.0 * step))
        lam_cols.append((lp - lm) / (2.0 * step))
        steps.append(step)
    x_jac = np.column_stack(x_cols) if x_cols else np.zeros((model.M, 0))
    lam_jac = (np.column_stack(lam_cols) if model.K and lam_cols
               else np.zeros((model.K, model.N)))
    return SensitivityBundle(x_jac=x_jac, lam_jac=lam_jac, method="fd",
                             step=float(np.max(steps)) if steps else None)


def decision_jacobian_ift(model: ProblemModel, sol: SolutionPoint) -> SensitivityBundle:
    """One bordered linear system per parameter.

    For each mu the unknowns (dx/da_mu, dlam/da_mu) satisfy
        L_xx dx + G_x^T dlam = -L_xa[:, mu],   G_x dx = -G_a[:, mu].
    """
    blocks, M = sol.blocks, model.M
    bordered = bordered_matrix(blocks.lagrangian_hess_xx(sol.lam), blocks.Gx)
    rhs = -np.vstack([blocks.lagrangian_hess_xa(sol.lam), blocks.Ga])
    solution, _ = solve_bordered(bordered, rhs, lambda: f"bordered system for {model.name!r}")
    if solution is None:
        raise DegeneracyError(f"singular bordered matrix for {model.name!r}")
    return SensitivityBundle(x_jac=solution[:M, :], lam_jac=solution[M:, :], method="ift")


def decision_jacobian_analytic(model: ProblemModel, sol: SolutionPoint,
                               x_jac_fn: Callable[[np.ndarray], np.ndarray],
                               lam_jac_fn: Optional[Callable] = None) -> SensitivityBundle:
    """Closed-form Jacobians supplied by a catalog entry."""
    x_jac = np.asarray(x_jac_fn(sol.a), dtype=float)
    if lam_jac_fn is not None:
        lam_jac = np.asarray(lam_jac_fn(sol.a), dtype=float)
    else:
        lam_jac = decision_jacobian_ift(model, sol).lam_jac
    return SensitivityBundle(x_jac=x_jac, lam_jac=lam_jac, method="analytic")

