"""Problem definition: objective, equality constraints, and optional analytic data.

A model is max_x f(x, a) subject to g_k(x, a) = 0 for k = 1..K, with x the
M decision variables and a the N parameters.  Models are immutable after
construction.  `Blocks(model, x, a)` evaluates a model at a point: every
block comes from its registered callable or, without one, from a central
finite-difference stencil, chosen in one place (`_block`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import ConfigurationError, EvaluationError

Evaluator = Callable[[np.ndarray, np.ndarray], float]
VectorEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
MatrixEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InvarianceGenerator:
    """First-order symmetry of a model: the operator X(x).d/dx + A(a).d/da.

    Its hypothesis is declared, not checked: the operator maps the objective
    to a function of f alone and each constraint g_k to a function of g_k
    that vanishes at g_k = 0 (in the catalog, f or 0 and g_k or 0).  The
    decision functions then inherit the invariance
    X(x(a)) = sum_mu A_mu(a) dx/da_mu, which `diagnostics.check_invariance`
    tests at a solution.
    """

    name: str
    X_map: Callable[[np.ndarray], np.ndarray]
    A_map: Callable[[np.ndarray], np.ndarray]


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


# kind -> the ProblemModel fields registered for it: the objective's callable
# and the constraints' bank, whose entry k serves constraint k (None: no entry)
BLOCK_FIELDS = {
    "value": ("objective", "constraints"),
    "grad_x": ("grad_x_objective", "grad_x_constraints"),
    "grad_a": ("grad_a_objective", "grad_a_constraints"),
    "hess_xx": ("hess_xx_objective", "hess_xx_constraints"),
    "hess_xa": ("hess_xa_objective", "hess_xa_constraints"),
}


def _registered(model: ProblemModel, kind: str, k: Optional[int]):
    """The callable registered for `kind` of term k (None: the objective), or None."""
    objective_field, bank_field = BLOCK_FIELDS[kind]
    if k is None:
        return getattr(model, objective_field)
    bank = getattr(model, bank_field)
    return None if bank is None else bank[k]


def _stencil(model: ProblemModel, kind: str, k: Optional[int], x, a) -> np.ndarray:
    """Central differences for a derivative block without a registered callable.

    Gradients difference the value with fd.STEP_FIRST.  hess_xx is the
    symmetrized Jacobian of a registered x-gradient (fd.STEP_FIRST), else
    `fd.hessian` of the value.  hess_xa is the a-Jacobian of the x-gradient
    block, with fd.STEP_FIRST when that is registered and fd.STEP_NESTED
    when it is itself differenced.
    """
    value = _registered(model, "value", k)
    if kind == "grad_x":
        return fd.gradient(lambda u: value(u, a), x)
    if kind == "grad_a":
        return fd.gradient(lambda b: value(x, b), a)
    has_grad = _registered(model, "grad_x", k) is not None
    if kind == "hess_xx":
        if not has_grad:
            return fd.hessian(lambda u: value(u, a), x)
        h = fd.jacobian(lambda u: _block(model, "grad_x", k, u, a), x)
        return 0.5 * (h + h.T)
    step = fd.STEP_FIRST if has_grad else fd.STEP_NESTED
    return fd.jacobian(lambda b: _block(model, "grad_x", k, x, b), a, step)


def _block(model: ProblemModel, kind: str, k: Optional[int], x, a):
    """Block `kind` of term k at (x, a) from the registered callable, else
    from `_stencil`; a value is a float and must be finite."""
    fn = _registered(model, kind, k)
    if fn is None:
        return _stencil(model, kind, k, x, a)
    if kind != "value":
        return np.asarray(fn(x, a), dtype=float)
    value = float(fn(x, a))
    if not math.isfinite(value):
        term = "objective" if k is None else f"constraint {k}"
        raise EvaluationError(f"{term} of {model.name!r} returned a non-finite value")
    return value


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class _Lazy:
    """A `Blocks` attribute: block `kind` of the objective or, `stacked`, of
    each constraint; evaluated on first use and kept in the instance dict."""

    def __init__(self, kind: str, stacked: bool = False):
        self.kind, self.stacked = kind, stacked

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, blocks, owner=None):
        if blocks is None:
            return self
        kind, model, x, a = self.kind, blocks.model, blocks.x, blocks.a
        if not self.stacked:
            value = _block(model, kind, None, x, a)
        elif kind.startswith("hess"):
            value = tuple(_read_only(_block(model, kind, k, x, a)) for k in range(model.K))
        elif model.K or kind == "value":
            value = np.array([_block(model, kind, k, x, a) for k in range(model.K)])
        else:
            value = np.zeros((0, x.size if kind == "grad_x" else a.size))
        if isinstance(value, np.ndarray):
            value = _read_only(value)
        blocks.__dict__[self.name] = value
        return value


@dataclass(frozen=True, eq=False)
class Blocks:
    """The blocks of `model` at one point (x, a) that the pipeline reads:
    f, g, fx, fa, Gx, Ga, fxx, fxa, and gxx and gxa with one second-derivative
    block per constraint.  Each comes from `_block`, evaluated on first use
    and kept; arrays are handed out as read-only views.  A failed evaluation
    keeps nothing and raises again on the next use.  The Lagrangian blocks
    hold the multipliers `lam` fixed."""

    model: ProblemModel
    x: np.ndarray
    a: np.ndarray

    f, g = _Lazy("value"), _Lazy("value", stacked=True)
    fx, fa = _Lazy("grad_x"), _Lazy("grad_a")
    Gx, Ga = _Lazy("grad_x", stacked=True), _Lazy("grad_a", stacked=True)   # K x M, K x N
    fxx, fxa = _Lazy("hess_xx"), _Lazy("hess_xa")                           # M x M, M x N
    gxx, gxa = _Lazy("hess_xx", stacked=True), _Lazy("hess_xa", stacked=True)   # K-tuples

    def __post_init__(self):
        model = self.model
        x, a = np.asarray(self.x, dtype=float), np.asarray(self.a, dtype=float)
        if x.shape != (model.M,):
            raise ConfigurationError(
                f"model {model.name!r}: expected {model.M} decision values, got shape {x.shape}")
        if a.shape != (model.N,):
            raise ConfigurationError(
                f"model {model.name!r}: expected {model.N} parameter values, got shape {a.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)

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

