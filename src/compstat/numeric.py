"""The max-norm that every layer measures residuals and scales with."""

import numpy as np


def max_abs(x) -> float:
    """float(np.max(np.abs(x))) bit for bit, without np.max's dispatch."""
    return float(np.abs(x).max())
