"""Catalog plumbing: benchmark entries and pipeline preparation."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..csm import CsmResult, build_omega, from_matrix
from ..diagnostics import (IDENTITY_TOL, SEMIDEFINITE_TOL, STENCIL_TOL, check_coherence,
                           check_first_order_system, check_hatta_reduction, check_invariance,
                           check_rank_bound, check_semidefinite, check_tangent_semidefinite)
from ..errors import NonConvergenceError
from ..geometry import IsovectorSet, build_isovectors
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

    @functools.cached_property
    def omega_eq7(self) -> CsmResult:
        """The main compensated matrix on the run's directions, built once."""
        return build_omega(self.model, self.sol, self.sens, self.iso)

    @functools.cached_property
    def derived(self) -> dict:
        """The entry's derived matrices, name -> (CsmResult, expected sign),
        built once; rows are labeled by decision when there are M of them."""
        if self.entry.derived_matrices is None:
            return {}
        model, out = self.model, {}
        for name, (matrix, sign) in self.entry.derived_matrices(self).items():
            labels = (model.decision_names if matrix.shape[0] == model.M else
                      tuple(f"r{i + 1}" for i in range(matrix.shape[0])))
            out[name] = (from_matrix(matrix, f"derived:{name}",
                                     f"{sign}_semidefinite_expected", labels=labels), sign)
        return out


def generic_checks(run: BenchRun, recipes: dict) -> list:
    """The checks every model must pass, on a prepared run and the recipes
    built on it (name -> CsmResult), in report order: the differentiated
    first-order system, invariance per generator, then per recipe its
    semidefiniteness and rank bound (the Silberberg matrix: its
    semidefiniteness on the null space of G_a), the expected sign of each
    derived matrix, coherence of "universal_U" with "omega_eq7", and the
    separable-constraint reduction when the model declares its slots.

    A row whose verdict a recipe's construction decides is left out.
    "omega_quadratic" is -X^T L_xx X for the compensated responses
    X = x_jac T^T of the direction rows T.  The first-order row's second
    block gives G_x X = -G_a T^T = 0: X lies in null(G_x), on which the
    second-order gate makes L_xx negative definite, so its sign and its
    rank bound hold wherever the first-order row does.  Its first block
    gives "omega_eq7" = "omega_quadratic" - (lam_jac T^T)^T G_x X.
    "universal_U" passes through a tangent projector of rank M - K.  For
    the Silberberg matrix S, T S T^T - "omega_eq7" = (T G_a^T)(lam_jac T^T),
    and the directions are built with T G_a^T = 0.

    The first-order system and invariance are held to IDENTITY_TOL, or to
    STENCIL_TOL when the decision Jacobian comes from central
    differences."""
    model, sol, sens, iso = run.model, run.sol, run.sens, run.iso
    tol = STENCIL_TOL if sens.method == "fd" else IDENTITY_TOL
    checks = [check_first_order_system(sol, sens, tol)]
    checks += [check_invariance(model, gen, sol, sens, tol=tol)
               for gen in model.invariance_generators]
    for recipe, result in recipes.items():
        if recipe == "silberberg_S":
            checks.append(check_tangent_semidefinite(result, sol.blocks.Ga,
                                                     "semidefinite[silberberg_S|tangent]"))
        elif recipe != "omega_quadratic":
            checks.append(check_semidefinite(result, "positive", tol=SEMIDEFINITE_TOL,
                                             symmetry_tol=SEMIDEFINITE_TOL,
                                             name=f"semidefinite[{recipe}]"))
            if recipe != "universal_U":
                checks.append(check_rank_bound(result, model.M, model.K,
                                               name=f"rank_bound[{recipe}]"))
    for name, (result, sign) in run.derived.items():
        checks.append(check_semidefinite(result, sign, tol=SEMIDEFINITE_TOL,
                                         symmetry_tol=SEMIDEFINITE_TOL,
                                         name=f"semidefinite[derived:{name}]"))
    omega = recipes.get("omega_eq7")
    if omega is not None and "universal_U" in recipes:
        checks.append(check_coherence(recipes["universal_U"], omega, iso))
    if model.separable_kappa is not None:
        checks.append(check_hatta_reduction(model, sol, sens, iso, omega))
    return checks


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
                basis: str = "prescribed", previous=None) -> BenchRun:
        """Solve, differentiate, and build directions for one parameter point.

        "analytic" takes the registered closed-form solution where one exists
        and the registered Jacobians.  Newton cross-checks the closed form
        from the registered start, or, given `previous`, the preceding point
        of a sweep, from the closed form's Euler prediction from there along
        the registered `analytic_x_jac` where that is the better start (see
        `solve_interior`); so only `newton_discrepancy` depends on the
        neighbour.  "numeric"
        forces Newton from the registered start and the implicit-function
        route.  `method` ("analytic" | "ift" | "fd") and `basis`
        ("prescribed" | "nullspace") override those choices.  An unconverged
        solve is returned undifferentiated; a converged one must pass the
        second-order gate `sol.bordered`, which also decides constraint
        qualification.
        """
        a = np.asarray(self.default_point if a is None else a, dtype=float)
        timings = {}
        tick = time.perf_counter()
        if pipeline == "analytic" and self.has_analytic:
            sol = solve_interior(self.model, a, x0=self.x0, config=config,
                                 previous=previous, x_jac=self.analytic_x_jac)
        else:
            pipeline = "numeric"
            sol = newton_solve(self.model, a, self.x0, config)
        timings["solve_s"] = time.perf_counter() - tick
        if not sol.converged:
            return BenchRun(entry=self, model=self.model, sol=sol, sens=None, iso=None,
                            pipeline=pipeline, timings=timings)

        tick = time.perf_counter()
        sol.bordered    # the second-order gate: raises unless a regular strict constrained maximum
        if method is None:
            method = "analytic" if pipeline == "analytic" else "ift"
        if method == "fd":
            sens = decision_jacobian_fd(self.model, a, config, x0=sol.x, factor=sol.bordered)
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

    def run_suite(self, pipeline: str = "analytic",
                  config: SolverConfig = SolverConfig()) -> list:
        """The generic checks on "omega_eq7", then the model's own oracles."""
        run = self.prepare(pipeline, config=config)
        if not run.sol.converged:
            raise NonConvergenceError(
                f"the {run.pipeline} solve of {self.name!r} did not converge")
        return (generic_checks(run, {"omega_eq7": run.omega_eq7})
                + [fn(run) for _, fn in self.property_suite])

