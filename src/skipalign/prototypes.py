"""Adaptive class prototypes.

Each prototype is a weighted fusion of the labeled class mean and the mean
of gate-accepted unlabeled embeddings assigned to that class. Weights are
count-based: the labeled side scaled by the unlabeled:labeled batch ratio,
the unlabeled side by the contribution knob r_u. Prototypes are stored
unnormalized; similarity code normalizes on the fly, which keeps the
convex-combination structure visible to tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingBatch
from .linalg import as_matrix, unit_rows


@dataclass(frozen=True)
class PrototypeSet:
    mu: np.ndarray            # (K, d) fused prototypes
    mu_labeled: np.ndarray    # (K, d) labeled class means
    mu_unlabeled: np.ndarray  # (K, d), zero rows where a class had no contributors
    n_labeled: np.ndarray     # (K,)
    n_unlabeled: np.ndarray   # (K,)
    gamma: float
    r_u: float

    def unit_directions(self) -> np.ndarray:
        return unit_rows(self.mu)

    @classmethod
    def from_means(cls, mu, gamma: float = 1.0, r_u: float = 0.0) -> "PrototypeSet":
        """Wrap a plain (K, d) matrix of class means, e.g. for tests."""
        mu = as_matrix(mu)
        k = mu.shape[0]
        return cls(mu=mu, mu_labeled=mu.copy(), mu_unlabeled=np.zeros_like(mu),
                   n_labeled=np.ones(k, dtype=np.int64),
                   n_unlabeled=np.zeros(k, dtype=np.int64),
                   gamma=gamma, r_u=r_u)


def refresh(labeled: EmbeddingBatch, unlabeled: EmbeddingBatch | None,
            gamma: float, r_u: float, num_classes: int | None = None) -> PrototypeSet:
    """Recompute prototypes from a labeled pool and gate-accepted unlabeled embeddings.

    `unlabeled` holds only the rows the gate accepted, each labeled with its
    predicted class. A class with no labeled samples is an error; a class
    with no unlabeled contributors keeps its labeled mean exactly.
    """
    if num_classes is None:
        num_classes = int(labeled.labels.max()) + 1
    dim = labeled.dim

    mu_l = np.zeros((num_classes, dim))
    n_l = np.zeros(num_classes, dtype=np.int64)
    for k in range(num_classes):
        rows = labeled.vectors[labeled.labels == k]
        if rows.shape[0] == 0:
            raise ValueError(f"prototype undefined: class {k} has no labeled samples")
        mu_l[k] = rows.mean(axis=0)
        n_l[k] = rows.shape[0]

    mu_u = np.zeros((num_classes, dim))
    n_u = np.zeros(num_classes, dtype=np.int64)
    if unlabeled is not None:
        for k in range(num_classes):
            selected = unlabeled.labels == k
            if selected.any():
                mu_u[k] = unlabeled.vectors[selected].mean(axis=0)
                n_u[k] = int(selected.sum())

    mu = np.empty_like(mu_l)
    for k in range(num_classes):
        w_l = gamma * n_l[k]
        w_u = r_u * n_u[k]
        if w_u == 0.0:
            mu[k] = mu_l[k]  # exact, not a weighted copy
        else:
            total = w_l + w_u
            mu[k] = (w_l / total) * mu_l[k] + (w_u / total) * mu_u[k]
    return PrototypeSet(mu=mu, mu_labeled=mu_l, mu_unlabeled=mu_u,
                        n_labeled=n_l, n_unlabeled=n_u, gamma=gamma, r_u=r_u)


def initial_prototypes(labeled: EmbeddingBatch, gamma: float,
                       num_classes: int | None = None) -> PrototypeSet:
    """Labeled means only; the gate is not trustworthy before training."""
    return refresh(labeled, None, gamma=gamma, r_u=0.0, num_classes=num_classes)


def proto_similarity_profile(batch: EmbeddingBatch, protos: PrototypeSet) -> np.ndarray:
    """(B, K) cosine similarity of every embedding against every prototype."""
    if batch.dim != protos.mu.shape[1]:
        raise ValueError(f"dimension mismatch: {batch.dim} vs {protos.mu.shape[1]}")
    return unit_rows(batch.vectors) @ protos.unit_directions().T
