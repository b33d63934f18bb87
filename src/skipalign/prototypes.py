"""Adaptive class prototypes.

Each prototype is a weighted fusion of the labeled class mean and the mean
of gate-accepted unlabeled embeddings assigned to that class. Weights are
count-based: the labeled side scaled by the unlabeled:labeled batch ratio,
the unlabeled side by the contribution knob r_u. Prototypes are stored
unnormalized, which keeps the convex-combination structure visible to tests;
every reader takes the unit rows, `unit_directions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import normalize


@dataclass(frozen=True)
class EmbeddingBatch:
    """A (B, d) block of embeddings and one class label per row. Its producers
    (`net.forward` and `net.backward`) have already checked it is finite."""

    vectors: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class PrototypeSet:
    """One refresh's prototypes and the means and counts behind them. The fusion
    weights are not kept here: they are the run's train.gamma and train.r_u."""

    mu: np.ndarray            # (K, d) fused prototypes
    mu_labeled: np.ndarray    # (K, d) labeled class means
    mu_unlabeled: np.ndarray  # (K, d), zero rows where a class had no contributors
    n_labeled: np.ndarray     # (K,)
    n_unlabeled: np.ndarray   # (K,)

    def unit_directions(self) -> np.ndarray:
        return normalize(self.mu)[0]


def refresh(labeled: EmbeddingBatch, unlabeled: EmbeddingBatch | None,
            gamma: float, r_u: float, num_classes: int) -> PrototypeSet:
    """Recompute prototypes from a labeled pool and gate-accepted unlabeled embeddings.

    `labeled` has rows of every class below num_classes; `unlabeled` holds only the
    rows the gate accepted, each labeled with its predicted class. A class with no
    unlabeled contributors keeps its labeled mean exactly.
    """
    mu_l = np.zeros((num_classes, labeled.vectors.shape[1]))
    mu_u = np.zeros_like(mu_l)
    n_l = np.zeros(num_classes, dtype=np.int64)
    n_u = np.zeros(num_classes, dtype=np.int64)
    mu = np.empty_like(mu_l)
    for k in range(num_classes):
        # Not empty: generate draws labels_per_class >= 1 labeled rows of every class.
        rows = labeled.vectors[labeled.labels == k]
        mu_l[k] = rows.mean(axis=0)
        n_l[k] = rows.shape[0]
        mu[k] = mu_l[k]  # exact, not a weighted copy, unless unlabeled rows weigh in
        if unlabeled is None or not (selected := unlabeled.labels == k).any():
            continue
        mu_u[k] = unlabeled.vectors[selected].mean(axis=0)
        n_u[k] = int(selected.sum())
        w_l = gamma * n_l[k]
        w_u = r_u * n_u[k]
        if w_u != 0.0:
            total = w_l + w_u
            mu[k] = (w_l / total) * mu_l[k] + (w_u / total) * mu_u[k]
    return PrototypeSet(mu=mu, mu_labeled=mu_l, mu_unlabeled=mu_u, n_labeled=n_l, n_unlabeled=n_u)
