"""Problem definition: objective, equality constraints, and optional analytic data.

A model is max_x f(x, a) subject to g_k(x, a) = 0 for k = 1..K, with x the
M decision variables and a the N parameters.  Models are immutable after
construction; every derivative the engine needs is served analytically when
registered and by central finite differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import fd
from .errors import ConfigurationError, EvaluationError

Evaluator = Callable[[np.ndarray, np.ndarray], float]
VectorEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
MatrixEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InvarianceGenerator:
    """First-order symmetry of a model: the operator X(x).d/dx + A(a).d/da.

    When the operator maps the objective to response_f(f) and each constraint
    to response_g[k](g_k) with response_g[k](0) = 0, the decision functions
    inherit the invariance X(x(a)) = sum_mu A_mu(a) dx/da_mu.
    """

    name: str
    X_map: Callable[[np.ndarray], np.ndarray]
    A_map: Callable[[np.ndarray], np.ndarray]
    response_f: Optional[Callable[[float], float]] = None
    response_g: Optional[Sequence[Callable[[float], float]]] = None


@dataclass(frozen=True)
class ProblemModel:
    name: str
    M: int
    N: int
    objective: Evaluator
    constraints: tuple = ()
    grad_x_objective: Optional[VectorEvaluator] = None
    grad_a_objective: Optional[VectorEvaluator] = None
    grad_x_constraints: Optional[tuple] = None
    grad_a_constraints: Optional[tuple] = None
    hess_xx_objective: Optional[MatrixEvaluator] = None
    hess_xa_objective: Optional[MatrixEvaluator] = None
    hess_xx_constraints: Optional[tuple] = None
    hess_xa_constraints: Optional[tuple] = None
    analytic_solution: Optional[Callable[[np.ndarray], tuple]] = None
    parameter_names: tuple = ()
    decision_names: tuple = ()
    invariance_generators: tuple = ()
    separable_kappa: Optional[tuple] = None  # parameter slot of each constraint's linear term

    def __post_init__(self):
        if self.K >= min(self.M, self.N):
            raise ConfigurationError(
                f"model {self.name!r}: constraint count {self.K} must stay "
                f"below min(M, N) = {min(self.M, self.N)}")
        if not self.parameter_names:
            object.__setattr__(self, "parameter_names",
                               tuple(f"a{i + 1}" for i in range(self.N)))
        if not self.decision_names:
            object.__setattr__(self, "decision_names",
                               tuple(f"x{i + 1}" for i in range(self.M)))
        if len(self.parameter_names) != self.N or len(self.decision_names) != self.M:
            raise ConfigurationError(f"model {self.name!r}: label counts do not match M, N")

    @property
    def K(self) -> int:
        return len(self.constraints)

    # -- checked evaluation -------------------------------------------------

    def _check_point(self, x, a):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        if x.shape != (self.M,):
            raise ConfigurationError(
                f"model {self.name!r}: expected {self.M} decision values, got shape {x.shape}")
        if a.shape != (self.N,):
            raise ConfigurationError(
                f"model {self.name!r}: expected {self.N} parameter values, got shape {a.shape}")
        return x, a

    def f(self, x, a) -> float:
        x, a = self._check_point(x, a)
        value = float(self.objective(x, a))
        if not np.isfinite(value):
            raise EvaluationError(f"objective of {self.name!r} returned a non-finite value")
        return value

    def g(self, k: int, x, a) -> float:
        x, a = self._check_point(x, a)
        value = float(self.constraints[k](x, a))
        if not np.isfinite(value):
            raise EvaluationError(f"constraint {k} of {self.name!r} returned a non-finite value")
        return value

    # -- first derivatives ---------------------------------------------------

    def obj_grad_x(self, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.grad_x_objective is not None:
            return np.asarray(self.grad_x_objective(x, a), dtype=float)
        return fd.gradient(lambda u: self.objective(u, a), x)

    def obj_grad_a(self, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.grad_a_objective is not None:
            return np.asarray(self.grad_a_objective(x, a), dtype=float)
        return fd.gradient(lambda b: self.objective(x, b), a)

    def con_grad_x(self, k: int, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.grad_x_constraints is not None and self.grad_x_constraints[k] is not None:
            return np.asarray(self.grad_x_constraints[k](x, a), dtype=float)
        return fd.gradient(lambda u: self.constraints[k](u, a), x)

    def con_grad_a(self, k: int, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.grad_a_constraints is not None and self.grad_a_constraints[k] is not None:
            return np.asarray(self.grad_a_constraints[k](x, a), dtype=float)
        return fd.gradient(lambda b: self.constraints[k](x, b), a)

    def con_grad_x_stack(self, x, a) -> np.ndarray:
        """K x M matrix whose row k is the decision-space constraint gradient."""
        if self.K == 0:
            return np.zeros((0, self.M))
        return np.array([self.con_grad_x(k, x, a) for k in range(self.K)])

    def con_grad_a_stack(self, x, a) -> np.ndarray:
        """K x N matrix whose row k is the parameter-space constraint gradient."""
        if self.K == 0:
            return np.zeros((0, self.N))
        return np.array([self.con_grad_a(k, x, a) for k in range(self.K)])

    # -- second derivatives --------------------------------------------------

    def obj_hess_xx(self, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.hess_xx_objective is not None:
            return np.asarray(self.hess_xx_objective(x, a), dtype=float)
        if self.grad_x_objective is not None:
            h = fd.jacobian(lambda u: self.obj_grad_x(u, a), x)
            return 0.5 * (h + h.T)
        return fd.hessian(lambda u: self.objective(u, a), x)

    def obj_hess_xa(self, x, a) -> np.ndarray:
        """M x N mixed block d2 f / dx_i da_mu."""
        x, a = self._check_point(x, a)
        if self.hess_xa_objective is not None:
            return np.asarray(self.hess_xa_objective(x, a), dtype=float)
        step = fd.STEP_FIRST if self.grad_x_objective is not None else fd.STEP_NESTED
        return fd.jacobian(lambda b: self.obj_grad_x(x, b), a, step)

    def con_hess_xx(self, k: int, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.hess_xx_constraints is not None and self.hess_xx_constraints[k] is not None:
            return np.asarray(self.hess_xx_constraints[k](x, a), dtype=float)
        if self.grad_x_constraints is not None and self.grad_x_constraints[k] is not None:
            h = fd.jacobian(lambda u: self.con_grad_x(k, u, a), x)
            return 0.5 * (h + h.T)
        return fd.hessian(lambda u: self.constraints[k](u, a), x)

    def con_hess_xa(self, k: int, x, a) -> np.ndarray:
        x, a = self._check_point(x, a)
        if self.hess_xa_constraints is not None and self.hess_xa_constraints[k] is not None:
            return np.asarray(self.hess_xa_constraints[k](x, a), dtype=float)
        has_grad = (self.grad_x_constraints is not None
                    and self.grad_x_constraints[k] is not None)
        step = fd.STEP_FIRST if has_grad else fd.STEP_NESTED
        return fd.jacobian(lambda b: self.con_grad_x(k, x, b), a, step)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


# Blocks attribute -> its evaluation from (model, x, a)
_BLOCKS = {
    "f": lambda m, x, a: m.f(x, a),
    "g": lambda m, x, a: np.array([m.g(k, x, a) for k in range(m.K)]),
    "fx": lambda m, x, a: m.obj_grad_x(x, a),
    "fa": lambda m, x, a: m.obj_grad_a(x, a),
    "Gx": lambda m, x, a: m.con_grad_x_stack(x, a),           # K x M
    "Ga": lambda m, x, a: m.con_grad_a_stack(x, a),           # K x N
    "fxx": lambda m, x, a: m.obj_hess_xx(x, a),
    "fxa": lambda m, x, a: m.obj_hess_xa(x, a),               # M x N
    "gxx": lambda m, x, a: tuple(_read_only(m.con_hess_xx(k, x, a)) for k in range(m.K)),
    "gxa": lambda m, x, a: tuple(_read_only(m.con_hess_xa(k, x, a)) for k in range(m.K)),
}


@dataclass(frozen=True, eq=False)
class Blocks:
    """The blocks of `model` at one point (x, a) that the pipeline reads:
    f, g, fx, fa, Gx, Ga, fxx, fxa, and gxx and gxa with one second-derivative
    block per constraint (see `_BLOCKS`).  Each is evaluated on first use and
    kept; arrays are handed out as read-only views.  A failed evaluation
    keeps nothing and raises again on the next use.  The Lagrangian blocks
    hold the multipliers `lam` fixed."""

    model: ProblemModel
    x: np.ndarray
    a: np.ndarray

    def __getattr__(self, name):
        # called only for attributes not yet in the instance dict
        if name not in _BLOCKS:
            raise AttributeError(name)
        value = _BLOCKS[name](self.model, self.x, self.a)
        if isinstance(value, np.ndarray):
            value = _read_only(value)
        self.__dict__[name] = value
        return value

    def lagrangian_grad_x(self, lam) -> np.ndarray:
        return _weighted(self.fx, self.Gx, lam)

    def lagrangian_hess_xx(self, lam) -> np.ndarray:
        return _weighted(self.fxx, self.gxx, lam)

    def lagrangian_hess_xa(self, lam) -> np.ndarray:
        """M x N mixed block of the Lagrangian."""
        return _weighted(self.fxa, self.gxa, lam)


def _weighted(first, terms, lam):
    """first + lam[0] * terms[0] + lam[1] * terms[1] + ..., added in that order."""
    for weight, term in zip(lam, terms):
        first = first + weight * term
    return first


def evaluate_lagrangian(model: ProblemModel, x, a, lam) -> float:
    """f(x, a) + sum_k lam_k g_k(x, a)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.K,):
        raise ConfigurationError(
            f"model {model.name!r}: expected {model.K} multipliers, got shape {lam.shape}")
    value = model.f(x, a)
    for k in range(model.K):
        value += lam[k] * model.g(k, x, a)
    return float(value)


@dataclass(frozen=True)
class GradientEval:
    """A requested gradient plus, when analytic data produced it, the residual
    of a spot check against the central-difference stencil."""

    vector: np.ndarray
    fd_residual: Optional[float] = None


def numeric_gradient(model: ProblemModel, which: str, wrt: str, x, a,
                     cross_check: bool = True) -> GradientEval:
    """Gradient of the objective or of constraint k with respect to x or a.

    `which` is "objective" or "constraint:<k>".  Analytic gradients take
    precedence; the finite-difference value is then used only for the
    recorded cross-check residual.
    """
    if wrt not in ("x", "a"):
        raise ConfigurationError(f"unknown differentiation target {wrt!r}")
    if which == "objective":
        analytic = model.grad_x_objective if wrt == "x" else model.grad_a_objective
        f_of = lambda u, b: model.objective(u, b)
    elif which.startswith("constraint:"):
        k = int(which.split(":", 1)[1])
        if not 0 <= k < model.K:
            raise ConfigurationError(f"constraint index {k} out of range for {model.name!r}")
        bank = model.grad_x_constraints if wrt == "x" else model.grad_a_constraints
        analytic = bank[k] if bank is not None else None
        f_of = lambda u, b: model.constraints[k](u, b)
    else:
        raise ConfigurationError(f"unknown gradient request {which!r}")

    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if wrt == "x":
        fd_vec = fd.gradient(lambda u: f_of(u, a), x)
    else:
        fd_vec = fd.gradient(lambda b: f_of(x, b), a)
    if analytic is None:
        return GradientEval(vector=fd_vec)
    vec = np.asarray(analytic(x, a), dtype=float)
    residual = float(np.max(np.abs(vec - fd_vec))) if cross_check else None
    return GradientEval(vector=vec, fd_residual=residual)


def augment_with_scale(model: ProblemModel, scale_name: str = "s") -> ProblemModel:
    """Append a positive scale parameter s and replace f by s*f.

    The appended parameter defaults to 1 and leaves the decision functions
    unchanged; constraints are untouched.
    """
    base_obj = model.objective

    def scaled_objective(x, a):
        return a[-1] * base_obj(x, a[:-1])

    def lift_con(con):
        return lambda x, a, _c=con: _c(x, a[:-1])

    def lift_vec(fn):
        if fn is None:
            return None
        return lambda x, a, _f=fn: np.asarray(_f(x, a[:-1]), dtype=float)

    grad_x_obj = None
    if model.grad_x_objective is not None:
        grad_x_obj = lambda x, a: a[-1] * np.asarray(model.grad_x_objective(x, a[:-1]), float)
    grad_a_obj = None
    if model.grad_a_objective is not None:
        grad_a_obj = lambda x, a: np.append(
            a[-1] * np.asarray(model.grad_a_objective(x, a[:-1]), float),
            model.objective(x, a[:-1]))
    hess_xx_obj = None
    if model.hess_xx_objective is not None:
        hess_xx_obj = lambda x, a: a[-1] * np.asarray(model.hess_xx_objective(x, a[:-1]), float)
    hess_xa_obj = None
    if model.hess_xa_objective is not None and model.grad_x_objective is not None:
        hess_xa_obj = lambda x, a: np.column_stack([
            a[-1] * np.asarray(model.hess_xa_objective(x, a[:-1]), float),
            np.asarray(model.grad_x_objective(x, a[:-1]), float)])

    grad_x_cons = None
    if model.grad_x_constraints is not None:
        grad_x_cons = tuple(lift_vec(fn) for fn in model.grad_x_constraints)
    grad_a_cons = None
    if model.grad_a_constraints is not None:
        grad_a_cons = tuple(
            (lambda x, a, _f=fn: np.append(np.asarray(_f(x, a[:-1]), float), 0.0))
            if fn is not None else None
            for fn in model.grad_a_constraints)
    hess_xx_cons = None
    if model.hess_xx_constraints is not None:
        hess_xx_cons = tuple(lift_vec(fn) for fn in model.hess_xx_constraints)
    hess_xa_cons = None
    if model.hess_xa_constraints is not None:
        hess_xa_cons = tuple(
            (lambda x, a, _f=fn: np.column_stack([
                np.asarray(_f(x, a[:-1]), float), np.zeros(len(x))]))
            if fn is not None else None
            for fn in model.hess_xa_constraints)

    analytic_solution = None
    if model.analytic_solution is not None:
        def scaled_solution(a, _sol=model.analytic_solution):
            x, lam = _sol(a[:-1])
            return x, a[-1] * np.asarray(lam, dtype=float)
        analytic_solution = scaled_solution

    return replace(
        model,
        name=f"{model.name}+scale",
        N=model.N + 1,
        objective=scaled_objective,
        constraints=tuple(lift_con(c) for c in model.constraints),
        grad_x_objective=grad_x_obj,
        grad_a_objective=grad_a_obj,
        grad_x_constraints=grad_x_cons,
        grad_a_constraints=grad_a_cons,
        hess_xx_objective=hess_xx_obj,
        hess_xa_objective=hess_xa_obj,
        hess_xx_constraints=hess_xx_cons,
        hess_xa_constraints=hess_xa_cons,
        analytic_solution=analytic_solution,
        parameter_names=model.parameter_names + (scale_name,),
        invariance_generators=(),
        separable_kappa=None,
    )


def verify_generator(model: ProblemModel, gen: InvarianceGenerator,
                     points: Sequence[tuple], tol: float = 1e-6) -> float:
    """Max residual of the generator's response identities over sample points."""
    worst = 0.0
    for x, a in points:
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        X = np.asarray(gen.X_map(x), dtype=float)
        A = np.asarray(gen.A_map(a), dtype=float)
        jf = X @ model.obj_grad_x(x, a) + A @ model.obj_grad_a(x, a)
        if gen.response_f is not None:
            worst = max(worst, abs(jf - gen.response_f(model.f(x, a))))
        for k in range(model.K):
            jg = X @ model.con_grad_x(k, x, a) + A @ model.con_grad_a(k, x, a)
            if gen.response_g is not None:
                worst = max(worst, abs(jg - gen.response_g[k](model.g(k, x, a))))
    if worst > tol:
        raise ConfigurationError(
            f"invariance generator {gen.name!r} fails its response identities "
            f"(residual {worst:.3e} > {tol:.1e})")
    return worst
