"""Shared record type: a batch of embeddings with optional per-row labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmbeddingBatch:
    """A (B, d) block of embeddings with optional per-row labels."""

    vectors: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"expected (B, d) embeddings, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("embeddings have non-finite entries")
        object.__setattr__(self, "vectors", v)
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=np.int64)
            if y.shape != (v.shape[0],):
                raise ValueError("labels length does not match batch size")
            object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]
