"""Tangent-hyperplane directions in parameter space and the compensated
derivatives built from them.

A direction t is accepted when it annihilates the parameter-space gradient
of every target function (the null property).  Applying the resulting
directional derivatives to the decision functions produces columns that
conform to the constraints in decision space; `verify_conformance` checks
that orthogonality numerically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, EmptyTangentError, NullPropertyError
from .numeric import max_abs

RANK_RTOL = 1e-10
NULL_TOL = 1e-8           # a prescribed row's null-property residual, per unit row norm
CONFORMANCE_TOL = 1e-6    # the compensated columns against the decision gradients


@dataclass(frozen=True)
class IsovectorSet:
    vectors: np.ndarray          # A x N, one direction per row
    annihilates_objective: bool
    null_residuals: np.ndarray   # A x C, residual of row alpha against target c
    basis_kind: str              # "nullspace" | "prescribed"
    redundant: bool = False

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.vectors.shape[1]


def null_property_residuals(rows: np.ndarray, grad_stack: np.ndarray) -> np.ndarray:
    """|t . grad| scaled by the gradient norm, per (row, target)."""
    if grad_stack.shape[0] == 0:
        return np.zeros((rows.shape[0], 0))
    raw = rows @ grad_stack.T                      # A x C
    scales = np.linalg.norm(grad_stack, axis=1)
    scales = np.where(scales > 0, scales, 1.0)
    return np.abs(raw) / scales


def null_basis(grads: np.ndarray) -> np.ndarray:
    """Orthonormal basis, one column per vector, of the null space of the
    rows of `grads` at RANK_RTOL; the identity when there are no rows."""
    if grads.shape[0] == 0:
        return np.eye(grads.shape[1])
    return scipy.linalg.null_space(grads, rcond=RANK_RTOL)


def build_isovectors(grad_stack: np.ndarray,
                     annihilates_objective: bool = False) -> IsovectorSet:
    """Orthonormal basis of the orthogonal complement of the stacked gradients.

    With C independent target gradients in an N-dimensional parameter space
    the result has N - C rows; an empty complement is an error.
    """
    grad_stack = np.atleast_2d(np.asarray(grad_stack, dtype=float))
    if grad_stack.size == 0:
        grad_stack = grad_stack.reshape(0, grad_stack.shape[1] if grad_stack.ndim == 2 else 0)
    vectors = null_basis(grad_stack).T
    if vectors.shape[0] == 0:
        raise EmptyTangentError(
            "target gradients span the whole parameter space; no tangent directions remain")
    return IsovectorSet(
        vectors=vectors,
        annihilates_objective=annihilates_objective,
        null_residuals=null_property_residuals(vectors, grad_stack),
        basis_kind="nullspace",
    )


def require_null_property(rows: np.ndarray, grad_stack: np.ndarray) -> np.ndarray:
    """The null-property residuals of `rows` against `grad_stack`; raises
    NullPropertyError when a row's residual exceeds NULL_TOL per unit row
    norm (at least 1)."""
    residuals = null_property_residuals(rows, grad_stack)
    if residuals.size:
        worst = np.unravel_index(np.argmax(residuals), residuals.shape)
        scale = np.linalg.norm(rows[worst[0]])
        if residuals[worst] > NULL_TOL * max(1.0, scale):
            raise NullPropertyError(
                f"row {worst[0]} fails the null property against target {worst[1]} "
                f"(residual {residuals[worst]:.3e})",
                row=int(worst[0]), target=int(worst[1]))
    return residuals


def prescribe_isovectors(rows: np.ndarray, grad_stack: np.ndarray,
                         annihilates_objective: bool = False) -> IsovectorSet:
    """Accept user- or recipe-supplied rows after verifying the null property.

    Rows need not be orthogonal or unit length.  A linearly dependent set is
    accepted with a redundancy warning; the derived matrices remain valid but
    carry forced zero eigenvalues.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    grad_stack = np.atleast_2d(np.asarray(grad_stack, dtype=float))
    if grad_stack.size == 0:
        grad_stack = np.zeros((0, rows.shape[1]))
    if rows.shape[1] != grad_stack.shape[1]:
        raise DimensionError(
            f"rows have {rows.shape[1]} components but gradients have {grad_stack.shape[1]}")
    residuals = require_null_property(rows, grad_stack)
    redundant = False
    if rows.shape[0] > 1:
        svals = np.linalg.svd(rows, compute_uv=False)
        redundant = bool(svals[-1] <= RANK_RTOL * svals[0]) or rows.shape[0] > rows.shape[1]
        if redundant:
            warnings.warn("prescribed directions are linearly dependent; "
                          "derived matrices will be redundant", stacklevel=2)
    return IsovectorSet(
        vectors=rows,
        annihilates_objective=annihilates_objective,
        null_residuals=residuals,
        basis_kind="prescribed",
        redundant=redundant,
    )


def gcd_apply(iso: IsovectorSet, jac: np.ndarray) -> np.ndarray:
    """Compensated derivatives of a Jacobian: column alpha is jac @ t_alpha."""
    jac = np.asarray(jac, dtype=float)
    if jac.shape[1] != iso.n_parameters:
        raise DimensionError(
            f"jacobian has {jac.shape[1]} parameter columns, directions have "
            f"{iso.n_parameters}")
    return jac @ iso.vectors.T


def verify_conformance(x_semicolon: np.ndarray, decision_grads: np.ndarray):
    """Residual table r[k, alpha] = sum_i g_k,i x_i;alpha and a pass verdict.

    The columns of a compensated decision Jacobian must be orthogonal to
    every decision-space constraint gradient.
    """
    x_semicolon = np.asarray(x_semicolon, dtype=float)
    decision_grads = np.atleast_2d(np.asarray(decision_grads, dtype=float))
    if decision_grads.size == 0:
        return np.zeros((0, x_semicolon.shape[1])), True
    if decision_grads.shape[1] != x_semicolon.shape[0]:
        raise DimensionError(
            f"decision gradients have {decision_grads.shape[1]} components, "
            f"jacobian has {x_semicolon.shape[0]} rows")
    table = decision_grads @ x_semicolon
    bound = conformance_tolerance(x_semicolon, decision_grads)
    passed = max_abs(table) <= bound if table.size else True
    return table, passed


def conformance_tolerance(x_semicolon: np.ndarray, decision_grads: np.ndarray) -> float:
    """The bound `verify_conformance` holds its residual table to:
    CONFORMANCE_TOL scaled by the size of the gradients and the compensated
    responses."""
    return CONFORMANCE_TOL * max(1.0, max_abs(decision_grads) * max(1.0, max_abs(x_semicolon)))
