"""Central finite-difference stencils used throughout the engine.

Default steps follow the usual order-optimal rules for second-order
stencils: h ~ eps**(1/3) for first derivatives of exact functions and
h ~ eps**(1/4) when differencing quantities that are themselves
finite-difference approximations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import EvaluationError

EPS = float(np.finfo(float).eps)
STEP_FIRST = EPS ** (1.0 / 3.0)
STEP_NESTED = EPS ** 0.25


def step_for(value: float, base: float = STEP_FIRST) -> float:
    return base * max(1.0, abs(float(value)))


def _check_finite(value, where: str, coordinate: int):
    if not np.all(np.isfinite(value)):
        raise EvaluationError(
            f"non-finite evaluation in {where} at stencil coordinate {coordinate}",
            coordinate=coordinate,
        )
    return value


def gradient(fn: Callable[[np.ndarray], float], v: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of one vector, with
    base step STEP_FIRST."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.size)
    for i in range(v.size):
        h = step_for(v[i])
        vp = v.copy(); vp[i] += h
        vm = v.copy(); vm[i] -= h
        fp = _check_finite(fn(vp), "gradient", i)
        fm = _check_finite(fn(vm), "gradient", i)
        out[i] = (fp - fm) / (2.0 * h)
    return out


def jacobian(fn: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
             base_step: float = STEP_FIRST) -> np.ndarray:
    """Central-difference Jacobian of a vector function; column i is d(fn)/dv_i."""
    v = np.asarray(v, dtype=float)
    cols = []
    for i in range(v.size):
        h = step_for(v[i], base_step)
        vp = v.copy(); vp[i] += h
        vm = v.copy(); vm[i] -= h
        fp = _check_finite(np.asarray(fn(vp), dtype=float), "jacobian", i)
        fm = _check_finite(np.asarray(fn(vm), dtype=float), "jacobian", i)
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def hessian(fn: Callable[[np.ndarray], float], v: np.ndarray) -> np.ndarray:
    """Symmetric second-derivative matrix via differenced central gradients,
    with base step STEP_NESTED."""
    g = lambda u: gradient(fn, u)
    h = jacobian(g, v, STEP_NESTED)
    return 0.5 * (h + h.T)
