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
        kappa = self.separable_kappa
        if kappa is not None and not (len(kappa) == len(set(kappa)) == self.K and all(
                isinstance(slot, int) and 0 <= slot < self.N for slot in kappa)):
            raise ConfigurationError(f"model {self.name!r}: separable_kappa {kappa!r} must "
                                     f"hold {self.K} distinct parameter slots in range({self.N})")

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


def _decisions(model: ProblemModel, x) -> np.ndarray:
    """`x` as a float array of the model's M decision values; raises on any
    other shape."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.M,):
        raise ConfigurationError(
            f"model {model.name!r}: expected {model.M} decision values, got shape {x.shape}")
    return x


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
        x, a = _decisions(model, self.x), np.asarray(self.a, dtype=float)
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
    unchanged; constraints are untouched.  Every registered block is lifted:
    the objective's is scaled by s, and grad_a and hess_xa gain their
    derivative in s, which is f or f_x for the objective (the lifted block
    stays unregistered without that partner) and 0 for a constraint.
    """
    def lift(kind: str, k: Optional[int]):
        fn = _registered(model, kind, k)
        partner = {"grad_a": "value", "hess_xa": "grad_x"}.get(kind)   # d/ds s f, d/ds s f_x
        d_s = _registered(model, partner, None) if partner and k is None else None
        if fn is None or (partner and k is None and d_s is None):
            return None

        def lifted(x, a):
            block = fn(x, a[:-1])
            if kind != "value":
                block = np.asarray(block, dtype=float)
            if k is None:
                block = a[-1] * block
            if partner is None:
                return block
            last = (np.zeros(block.shape[:-1]) if d_s is None
                    else np.asarray(d_s(x, a[:-1]), dtype=float))
            return np.concatenate([block, last[..., None]], axis=-1)
        return lifted

    fields = {}
    for kind, (objective_field, bank_field) in BLOCK_FIELDS.items():
        bank = getattr(model, bank_field)
        fields[objective_field] = lift(kind, None)
        fields[bank_field] = None if bank is None else tuple(
            lift(kind, k) for k in range(len(bank)))

    solution = model.analytic_solution

    def scaled_solution(a):
        x, lam = solution(a[:-1])
        return x, a[-1] * np.asarray(lam, dtype=float)

    return replace(
        model,
        name=f"{model.name}+scale",
        N=model.N + 1,
        **fields,
        analytic_solution=None if solution is None else scaled_solution,
        parameter_names=model.parameter_names + (scale_name,),
        invariance_generators=(),
        separable_kappa=None,
    )

