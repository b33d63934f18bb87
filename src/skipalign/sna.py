"""Selective non-alignment losses.

The unlabeled loss pulls an embedding toward its predicted prototype only
when the dual gate fires; everything else receives a softmax-weighted
angular repulsion from all prototypes. Labeled embeddings get supervised
instance-wise and prototype alignment. All similarities are cosine on
unit-normalized copies, so every loss here depends on an embedding only
through its direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingBatch
from .linalg import as_matrix, as_vector, logsumexp_rows, softmax, unit, unit_rows
from .prototypes import PrototypeSet

# Additive mask that removes an entry from a log-sum-exp exactly.
_NEG_INF = -1e30


@dataclass(frozen=True)
class GateMask:
    """Per-sample dual-gate decisions with the scores that produced them."""

    phi: np.ndarray         # (B,) in {0, 1}
    cc_conf: np.ndarray     # max classifier probability per sample
    od_conf: np.ndarray     # detector ID probability at the predicted class
    pred_class: np.ndarray  # argmax class per sample
    tau_id: float
    eta_id: float

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


def dual_gate(cc_probs, od_id_probs, tau_id: float, eta_id: float) -> GateMask:
    """Mark unlabeled samples confidently in-distribution.

    A sample passes only if its classifier confidence exceeds tau_id and
    the one-vs-all ID probability at the predicted class exceeds eta_id.
    Argmax ties break to the lowest class index.
    """
    cc = as_matrix(cc_probs)
    od = as_matrix(od_id_probs)
    if cc.shape != od.shape:
        raise ValueError(f"shape mismatch: {cc.shape} vs {od.shape}")
    if not (0.0 <= tau_id <= 1.0 and 0.0 <= eta_id <= 1.0):
        raise ValueError("thresholds must lie in [0, 1]")
    pred = np.argmax(cc, axis=1)
    rows = np.arange(cc.shape[0])
    cc_conf = cc[rows, pred]
    od_conf = od[rows, pred]
    phi = ((cc_conf > tau_id) & (od_conf > eta_id)).astype(np.int64)
    return GateMask(phi=phi, cc_conf=cc_conf, od_conf=od_conf, pred_class=pred,
                    tau_id=tau_id, eta_id=eta_id)


def _proto_sims(z: np.ndarray, protos: PrototypeSet) -> np.ndarray:
    zh = unit(as_vector(z))
    return protos.unit_directions() @ zh


def usna_loss(z, protos: PrototypeSet, phi: int, k_hat: int, temperature: float) -> float:
    """Unlabeled selective non-alignment loss for one embedding."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    sims = _proto_sims(z, protos)
    if not 0 <= k_hat < sims.size:
        raise ValueError(f"class index {k_hat} out of range for {sims.size} prototypes")
    scaled = sims / temperature
    m = np.max(scaled)
    lse = m + np.log(np.sum(np.exp(scaled - m)))
    return float(-phi * scaled[k_hat] + lse)


def usna_grad(z, protos: PrototypeSet, phi: int, k_hat: int, temperature: float) -> np.ndarray:
    """Analytic gradient of usna_loss with respect to the embedding.

    Purely angular by construction: the radial component is projected out,
    so the result is orthogonal to z up to rounding.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = as_vector(z)
    norm = float(np.linalg.norm(z))
    if norm < 1e-30:
        raise ValueError("degenerate vector: norm below 1e-30")
    mu_hat = protos.unit_directions()
    if not 0 <= k_hat < mu_hat.shape[0]:
        raise ValueError(f"class index {k_hat} out of range for {mu_hat.shape[0]} prototypes")
    zh = z / norm
    sims = mu_hat @ zh
    alpha = softmax(sims, temperature)
    direction = alpha @ mu_hat - phi * mu_hat[k_hat]
    tangential = direction - np.dot(zh, direction) * zh
    return tangential / (temperature * norm)


def ia_loss(batch: EmbeddingBatch, temperature: float) -> tuple[float, int]:
    """Instance-wise alignment over a labeled batch.

    Returns (loss, contributing_anchors). Anchors with no same-class
    partner are skipped; a batch with all-distinct labels yields (0.0, 0).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if batch.labels is None:
        raise ValueError("instance-wise alignment requires labels")
    if batch.size < 2:
        raise ValueError("instance-wise alignment requires a batch of at least 2")
    zh = unit_rows(batch.vectors)
    sims = zh @ zh.T / temperature
    off_diag = np.full_like(sims, 0.0)
    np.fill_diagonal(off_diag, _NEG_INF)
    lse = logsumexp_rows(sims + off_diag)
    positives = (batch.labels[:, None] == batch.labels[None, :])
    np.fill_diagonal(positives, False)
    counts = positives.sum(axis=1)
    contributing = counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return 0.0, 0
    log_prob = sims - lse[:, None]
    per_anchor = -(positives * log_prob).sum(axis=1)[contributing] / counts[contributing]
    return float(per_anchor.mean()), n_anchors


def pa_loss(z, protos: PrototypeSet, y: int, temperature: float) -> float:
    """Prototype alignment for a labeled embedding: the always-pulled case."""
    return usna_loss(z, protos, phi=1, k_hat=y, temperature=temperature)
