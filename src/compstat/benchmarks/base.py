"""Catalog plumbing: benchmark entries and pipeline preparation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import NonConvergenceError
from ..geometry import IsovectorSet, build_isovectors
from ..model import ProblemModel
from ..sensitivity import (SensitivityBundle, decision_jacobian_analytic,
                           decision_jacobian_fd, decision_jacobian_ift)
from ..solver import SolutionPoint, SolverConfig, newton_solve, solve_interior


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
            iso = build_isovectors(self.model.con_grad_a_stack(sol.x, sol.a))
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

