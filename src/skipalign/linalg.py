"""Dense float64 kernels shared by every other module.

Vectors are 1-D numpy arrays, matrices 2-D row-major numpy arrays.
`as_vector`/`as_matrix` check the shape and finiteness of outside input. The
kernels a training step runs check only for faults: `unit_rows` rejects a
zero row rather than clamp it, which would hide an upstream bug.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Norms below this are treated as degenerate rather than normalized.
MIN_NORM = 1e-30


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def unit_rows(m: np.ndarray) -> np.ndarray:
    """Row-normalized copy of a matrix; any near-zero row is an error."""
    m = as_matrix(m)
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms < MIN_NORM):
        bad = int(np.argmin(norms))
        raise ValueError(f"degenerate vector: row {bad} has norm below 1e-30")
    return m / norms[:, None]


def softmax_rows(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise max-shifted softmax of a matrix of logits."""
    x = logits / temperature
    x = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(x)
    return e / np.sum(e, axis=1, keepdims=True)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field, one coordinate at a time.

    The oracle against which every analytic gradient in this package is
    checked; it must stay independent of those implementations.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = as_vector(x)
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
