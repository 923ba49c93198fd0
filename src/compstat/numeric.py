"""The max-norm that every layer measures residuals and scales with, and
the positive-definite solve of the catalog's closed forms."""

import warnings

import numpy as np
import scipy.linalg

# SciPy's solve warns when its reciprocal condition estimate is NaN or below
# eps, the one double constant its compiled `_solve` compares the estimate
# with.  Its 1-norm can differ from dlange's in the last bits, so below twice
# that floor `spd_solve` leaves the diagnosis to SciPy.
DEFER_RCOND = 2.0 * np.finfo(float).eps


def max_abs(x) -> float:
    """float(np.max(np.abs(x))) bit for bit, without np.max's dispatch."""
    return float(np.abs(x).max())


def spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.solve(mat, rhs, assume_a="pos") bit for bit, its
    exceptions and warnings included, for a float (n, n) `mat` and an (n,)
    or (n, k) `rhs`, without its generic wrapper: one dposv (the Cholesky
    factor of the upper triangle, as SciPy's) and one dpocon.  SciPy itself
    solves where its result or diagnosis could differ: at n < 2, which it
    solves by division; at non-finite input or a matrix that is not positive
    definite, which it rejects; and at a condition estimate below
    DEFER_RCOND, where it may warn.  Its warnings are issued again at the
    caller's line, where SciPy's own call would have shown them."""
    lapack = scipy.linalg.lapack
    if mat.shape[0] >= 2 and np.isfinite(mat).all() and np.isfinite(rhs).all():
        factor, solution, info = lapack.dposv(mat, rhs)
        if info == 0 and lapack.dpocon(factor, lapack.dlange("1", mat))[0] >= DEFER_RCOND:
            return solution
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution = scipy.linalg.solve(mat, rhs, assume_a="pos")
    for warning in caught:
        warnings.warn(warning.message, warning.category, stacklevel=2)
    return solution
