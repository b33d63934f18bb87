"""Selective non-alignment losses.

The unlabeled loss pulls an embedding toward its predicted prototype only
when the dual gate fires; everything else receives a softmax-weighted
angular repulsion from all prototypes. Labeled embeddings get supervised
instance-wise and prototype alignment. All similarities are cosine on
unit-normalized copies, so every loss here depends on an embedding only
through its direction; each reads its rows of the step's `linalg.normalize`
pass and returns its value with its angular gradient w.r.t. the embeddings.
Their tape twins in `tensor_losses` are the oracle the tests compare them with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import log_softmax, one_hot

# Additive mask that removes an entry from a log-sum-exp exactly.
_NEG_INF = -1e30


@dataclass(frozen=True)
class GateMask:
    """Per-sample dual-gate decisions with the scores that produced them."""

    phi: np.ndarray         # (B,) in {0, 1}
    cc_conf: np.ndarray     # max classifier probability per sample
    od_conf: np.ndarray     # detector ID probability at the predicted class
    pred_class: np.ndarray  # argmax class per sample

    @property
    def accepted(self) -> int:
        return int(self.phi.sum())


@dataclass(frozen=True)
class SnaWeights:
    lambda_usna: float = 1.0
    lambda_ia: float = 1.0
    lambda_pa: float = 1.0
    temperature: float = 0.5

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        for name in ("lambda_usna", "lambda_ia", "lambda_pa"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# The loss_combo sweep's settings of the three alignment weights.
LOSS_COMBOS = {
    "none": {"lambda_usna": 0.0, "lambda_ia": 0.0, "lambda_pa": 0.0},
    "ia_pa": {"lambda_usna": 0.0, "lambda_ia": 1.0, "lambda_pa": 1.0},
    "usna": {"lambda_usna": 1.0, "lambda_ia": 0.0, "lambda_pa": 0.0},
    "all": {"lambda_usna": 1.0, "lambda_ia": 1.0, "lambda_pa": 1.0},
}


def dual_gate(cc_probs, od_probs, tau_id: float, eta_id: float) -> GateMask:
    """Mark unlabeled samples confidently in-distribution.

    A sample passes only if its classifier confidence exceeds tau_id and
    the one-vs-all ID probability at the predicted class exceeds eta_id.
    Argmax ties break to the lowest class index.
    """
    cc = np.asarray(cc_probs)
    od = np.asarray(od_probs)
    pred = cc.argmax(axis=1)
    rows = np.arange(cc.shape[0])
    cc_conf = cc[rows, pred]
    od_conf = od[rows, pred]
    phi = ((cc_conf > tau_id) & (od_conf > eta_id)).astype(np.int64)
    return GateMask(phi=phi, cc_conf=cc_conf, od_conf=od_conf, pred_class=pred)


def _tangential(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. z from the gradient w.r.t. z/||z||: the radial part is
    projected out, so the result is orthogonal to each row of z."""
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms


def usna(zh, norms, unit_protos, phi, pred_class, temperature: float) -> tuple[float, np.ndarray]:
    """Batch-mean unlabeled selective non-alignment loss and its angular gradient.

    Reads the batch's `normalize` rows. Row i is pulled toward prototype
    pred_class[i] when phi[i] is 1; every row is repelled from all prototypes
    by the softmax over their scaled cosines. Returns (value, gradient w.r.t.
    the embeddings); each gradient row is orthogonal to its embedding.
    """
    n = zh.shape[0]
    pull = one_hot(pred_class, unit_protos.shape[0]) * np.asarray(phi, dtype=np.float64)[:, None]
    scaled = (zh @ unit_protos.T) * (1.0 / temperature)
    shift = scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled - shift)
    total = e.sum(axis=1, keepdims=True)
    lse = (np.log(total) + shift).reshape(-1)
    value = (lse - (scaled * pull).sum(axis=1)).sum() * (1.0 / n)
    grad_unit = ((e / total - pull) @ unit_protos) * (1.0 / (temperature * n))
    return float(value), _tangential(grad_unit, zh, norms)


def pa(zh, norms, unit_protos, labels, temperature: float) -> tuple[float, np.ndarray]:
    """Prototype alignment: `usna` with the gate always open for labeled samples."""
    return usna(zh, norms, unit_protos, np.ones(zh.shape[0]), labels, temperature)


def ia(zh, norms, labels, temperature: float) -> tuple[float, np.ndarray]:
    """Instance-wise alignment over labeled `normalize` rows, and its angular gradient.

    Cosine similarities on unit rows, the anchor itself masked out of the
    denominator, anchors without a same-class partner excluded from the
    mean; with no such anchor the loss is (0.0, zeros).
    """
    n = zh.shape[0]
    y = np.asarray(labels, dtype=np.int64)
    positives = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(positives, 0.0)
    counts = positives.sum(axis=1)
    contributing = counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(zh)
    sims = (zh @ zh.T) * (1.0 / temperature)
    log_prob, prob = log_softmax(sims + np.diag(np.full(n, _NEG_INF)))
    weights = np.where(contributing, 1.0 / np.maximum(counts, 1.0), 0.0)
    value = (-(log_prob * positives).sum(axis=1) * weights).sum() * (1.0 / n_anchors)
    grad_sims = (contributing[:, None] * prob - weights[:, None] * positives) \
        * (1.0 / n_anchors)
    grad_unit = ((grad_sims + grad_sims.T) @ zh) * (1.0 / temperature)
    return float(value), _tangential(grad_unit, zh, norms)
