"""Dense float64 kernels shared by every other module.

Vectors are 1-D numpy arrays, matrices 2-D row-major numpy arrays.
`as_matrix` checks the shape and finiteness of outside input. The
kernels a training step runs check only for faults: `normalize` rejects a
zero row rather than clamp it, which would hide an upstream bug.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Norms below this are treated as degenerate rather than normalized.
MIN_NORM = 1e-30


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and the (B, 1) norms they were divided by; a zero row is an error."""
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if (norms < MIN_NORM).any():
        raise ValueError("degenerate vector: cannot normalize a zero row")
    return z / norms, norms


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field at a finite 1-D point x, one
    coordinate at a time.

    The oracle against which every analytic gradient in this package is
    checked; it must stay independent of those implementations.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function evaluation at coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g
