"""Central finite differences for gradients and Jacobians.

Steps are relative: the step used for coordinate i is step * (1 + |x_i|).
"""

from __future__ import annotations

import numpy as np

__all__ = ["finite_diff_gradient", "finite_diff_jacobian"]


def finite_diff_jacobian(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector.

    Row i is the derivative of output component i with respect to x.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = step * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def finite_diff_gradient(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector: its Jacobian."""
    return finite_diff_jacobian(f, x, step)
