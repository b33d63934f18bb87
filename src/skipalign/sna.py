"""Selective non-alignment losses.

The unlabeled loss pulls an embedding toward its predicted prototype only
when the dual gate fires; everything else receives a softmax-weighted
angular repulsion from all prototypes. Labeled embeddings get supervised
instance-wise and prototype alignment; the latter is the unlabeled loss with
the gate open, so one pass serves both. All similarities are cosine on
unit-normalized copies, so every loss here depends on an embedding only
through its direction; each reads its rows of the step's `heads.normalize`
pass and returns its gradient w.r.t. the unit rows, which the step sums and
takes to the embeddings once (`tangential`). Their tape twins in
`tensor_losses` are the oracle the tests compare them with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import log_softmax

# A logit that removes its entry from a log-sum-exp exactly.
_NEG_INF = -1e30


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


def dual_gate(cc_probs, od_probs, tau_id: float, eta_id: float) -> tuple[np.ndarray, ...]:
    """Mark unlabeled samples confidently in-distribution, from (B, K) probability arrays,
    as (phi, cc_conf, od_conf, pred_class): where the gate pulls, the classifier's
    confidence, the detector's ID probability at the predicted class, and that class.

    A sample passes only if its classifier confidence exceeds tau_id and
    the one-vs-all ID probability at the predicted class exceeds eta_id.
    Argmax ties break to the lowest class index.
    """
    pred = cc_probs.argmax(axis=1)
    rows = np.arange(len(pred))
    cc_conf = cc_probs[rows, pred]
    od_conf = od_probs[rows, pred]
    phi = (cc_conf > tau_id) & (od_conf > eta_id)
    return phi, cc_conf, od_conf, pred


def tangential(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. z from the gradient w.r.t. z/||z||: the radial part is
    projected out, so the result is orthogonal to each row of z."""
    radial = np.add.reduce(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms


def usna(zh, unit_protos, pull, scale, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Selective non-alignment over `normalize` rows: each row's loss, and the gradient
    of sum_i scale_i * loss_i w.r.t. the unit rows (`tangential` takes it to the
    embeddings).

    Row i is pulled toward a prototype where pull[i] is its one-hot, when the gate
    fires, and pulled nowhere where pull[i] is zero; every row is repelled from all
    prototypes by the softmax over their scaled cosines. Prototype alignment is the
    same loss over labeled rows with the gate always open.
    """
    scaled = (zh @ unit_protos.T) * (1.0 / temperature)
    _, probs, lse = log_softmax(scaled)
    losses = lse[:, 0] - np.add.reduce(scaled * pull, axis=1)
    return losses, ((probs - pull) * (scale * (1.0 / temperature))[:, None]) @ unit_protos


def ia(zh, y, temperature: float, scale: float) -> tuple[float, np.ndarray]:
    """Instance-wise alignment over labeled `normalize` rows with one-hot labels y: its
    value, and its gradient w.r.t. the unit rows times scale.

    Cosine similarities on unit rows, the anchor itself masked out of the
    denominator, anchors without a same-class partner excluded from the
    mean; with no such anchor the loss is (0.0, zeros).
    """
    n = zh.shape[0]
    positives = y @ y.T
    positives.flat[::n + 1] = 0.0
    counts = np.add.reduce(positives, axis=1)
    n_anchors = np.count_nonzero(counts)
    if n_anchors == 0:
        return 0.0, np.zeros_like(zh)
    sims = (zh @ zh.T) * (1.0 / temperature)
    sims.flat[::n + 1] = _NEG_INF  # each anchor's own entry
    log_prob, prob, _ = log_softmax(sims)
    positives *= (1.0 / np.maximum(counts, 1.0))[:, None]  # each anchor's mean over them
    value = -np.vdot(log_prob, positives) * (1.0 / n_anchors)
    if n_anchors < n:  # an anchor without a partner takes no gradient either
        prob *= (counts > 0)[:, None]
    grad_sims = prob - positives
    return float(value), ((grad_sims + grad_sims.T) @ zh) * (scale / (temperature * n_anchors))
