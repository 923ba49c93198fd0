"""Tangent-hyperplane directions in parameter space.

A direction t is accepted when it annihilates the parameter-space gradient
of every target function (the null property).  The compensated responses
x_jac t^T along such directions then conform to the constraints in
decision space, G_x x_jac t^T = -G_a t^T = 0, wherever the differentiated
first-order system holds (`diagnostics.check_first_order_system`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, EmptyTangentError, NullPropertyError

RANK_RTOL = 1e-10
NULL_TOL = 1e-8           # a prescribed row's null-property residual, per unit row norm


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
