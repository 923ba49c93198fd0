"""Catalog plumbing: benchmark entries and pipeline preparation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..diagnostics import CheckReport, report
from ..errors import NonConvergenceError
from ..geometry import IsovectorSet, build_isovectors, gcd_apply, verify_conformance
from ..model import BLOCK_FIELDS, ProblemModel
from ..sensitivity import (SensitivityBundle, decision_jacobian_analytic,
                           decision_jacobian_fd, decision_jacobian_ift)
from ..solver import SolutionPoint, SolverConfig, newton_solve, solve_interior


@dataclass(frozen=True)
class LinearBudget:
    """The budget constraint a[level] - a[prices] . x = 0 of an n_dim
    parameter space: its callables, its Slutsky compensation rows and the
    compensated block of a decision Jacobian."""
    n_dim: int
    prices: slice
    level: int

    def value(self, x, a):
        return float(a[self.level] - a[self.prices] @ x)

    def grad_x(self, x, a):
        return -a[self.prices]

    def grad_a(self, x, a):
        out = np.zeros(self.n_dim)
        out[self.prices] = -x
        out[self.level] = 1.0
        return out

    def hess_xx(self, x, a):
        return np.zeros((x.size, x.size))

    def hess_xa(self, x, a):
        out = np.zeros((x.size, self.n_dim))
        out[:, self.prices] = -np.eye(x.size)
        return out

    def rows(self, x) -> np.ndarray:
        """Slutsky rows: each unit price direction compensated by x in level."""
        out = np.zeros((x.size, self.n_dim))
        out[:, self.prices] = np.eye(x.size)
        out[:, self.level] = x
        return out

    def substitution(self, x_jac: np.ndarray, x) -> np.ndarray:
        """Compensated price responses dx/dp + dx/dlevel x^T = x_jac @ rows(x).T."""
        return x_jac[:, self.prices] + np.outer(x_jac[:, self.level], x)


def constraint_fields(constraints) -> dict:
    """The five constraint keyword arguments of ProblemModel, in the order
    given, from LinearBudgets and (g, g_x, g_a, g_xx, g_xa) tuples: one
    callable for each kind of `BLOCK_FIELDS`, in its order."""
    parts = [tuple(getattr(c, kind) for kind in BLOCK_FIELDS)
             if isinstance(c, LinearBudget) else tuple(c) for c in constraints]
    return {bank: tuple(p[i] for p in parts)
            for i, (_, bank) in enumerate(BLOCK_FIELDS.values())}


@dataclass(frozen=True)
class BenchRun:
    """One prepared pipeline pass: solution, sensitivities, and directions."""
    entry: "BenchmarkEntry"
    model: ProblemModel
    sol: SolutionPoint
    sens: Optional[SensitivityBundle]   # None when the solve did not converge
    iso: Optional[IsovectorSet]         # None when the solve did not converge
    pipeline: str                    # "analytic" | "numeric"
    timings: dict = field(default_factory=dict)   # stage -> wall seconds

    @property
    def tol(self) -> float:
        """Default check tolerance for this pipeline."""
        return 1e-8 if self.pipeline == "analytic" else 1e-6


def check_conformance(run: BenchRun) -> CheckReport:
    """Suite check: the compensated decision columns are orthogonal to the
    decision-space constraint gradients, to 1e-6."""
    table, _ = verify_conformance(gcd_apply(run.iso, run.sens.x_jac), run.sol.blocks.Gx)
    return report("conformance", "constraint-conformance",
                  float(np.max(np.abs(table))) if table.size else 0.0, 1e-6)


@dataclass(frozen=True)
class BenchmarkEntry:
    name: str
    model: ProblemModel
    default_point: np.ndarray
    x0: np.ndarray
    isovector_recipe: Callable[[ProblemModel, SolutionPoint, SensitivityBundle], IsovectorSet]
    property_suite: tuple = ()       # of (name, fn(BenchRun) -> CheckReport)
    analytic_x_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic_lam_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derived_matrices: Optional[Callable] = None   # BenchRun -> {name: (matrix, sign)}
    description: str = ""

    @property
    def has_analytic(self) -> bool:
        return self.model.analytic_solution is not None

    def suite_names(self) -> tuple:
        return tuple(name for name, _ in self.property_suite)

    def prepare(self, pipeline: str = "analytic", a=None,
                config: SolverConfig = SolverConfig(), method: Optional[str] = None,
                basis: str = "prescribed", fd_step: Optional[float] = None) -> BenchRun:
        """Solve, differentiate, and build directions for one parameter point.

        "analytic" takes the registered closed-form solution where one exists
        (Newton cross-checks it) and the registered Jacobians; "numeric"
        forces Newton from the registered start and the implicit-function
        route.  `method` ("analytic" | "ift" | "fd", the last with step
        `fd_step`) and `basis` ("prescribed" | "nullspace") override those
        choices.  An unconverged solve is returned undifferentiated.
        """
        a = np.asarray(self.default_point if a is None else a, dtype=float)
        timings = {}
        tick = time.perf_counter()
        if pipeline == "analytic" and self.has_analytic:
            sol = solve_interior(self.model, a, x0=self.x0, config=config)
        else:
            pipeline = "numeric"
            sol = newton_solve(self.model, a, self.x0, config)
        timings["solve_s"] = time.perf_counter() - tick
        if not sol.converged:
            return BenchRun(entry=self, model=self.model, sol=sol, sens=None, iso=None,
                            pipeline=pipeline, timings=timings)

        tick = time.perf_counter()
        if method is None:
            method = "analytic" if pipeline == "analytic" else "ift"
        if method == "fd":
            sens = decision_jacobian_fd(self.model, a, config, h=fd_step, x0=sol.x)
        elif method == "analytic" and self.analytic_x_jac is not None:
            sens = decision_jacobian_analytic(
                self.model, sol, self.analytic_x_jac, self.analytic_lam_jac)
        else:
            sens = decision_jacobian_ift(self.model, sol)
        timings["sensitivity_s"] = time.perf_counter() - tick

        tick = time.perf_counter()
        if basis == "prescribed":
            iso = self.isovector_recipe(self.model, sol, sens)
        else:
            iso = build_isovectors(sol.blocks.Ga)
        timings["isovectors_s"] = time.perf_counter() - tick
        return BenchRun(entry=self, model=self.model, sol=sol, sens=sens, iso=iso,
                        pipeline=pipeline, timings=timings)

    def fd_bundle(self, a=None, config: SolverConfig = SolverConfig()) -> SensitivityBundle:
        a = np.asarray(self.default_point if a is None else a, dtype=float)
        return decision_jacobian_fd(self.model, a, config, x0=self.x0)

    def run_suite(self, pipeline: str = "analytic",
                  config: SolverConfig = SolverConfig()) -> list:
        run = self.prepare(pipeline, config=config)
        if not run.sol.converged:
            raise NonConvergenceError(
                f"the {run.pipeline} solve of {self.name!r} did not converge")
        return [fn(run) for _, fn in self.property_suite]

