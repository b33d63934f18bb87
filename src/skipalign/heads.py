"""Classifier and one-vs-all detector losses, and the objective's composition.

The closed-set side is supervised cross-entropy plus FixMatch-style hard
pseudo-label consistency. The detector side trains K binary sub-classifiers
whose per-class (ID, OOD) pair comes from a two-way softmax, with entropy
sharpening, cross-view consistency, and a pseudo-negative term on top.
`id_probs` turns a pair of logit matrices into that softmax's ID
probability, where it is read: the dual gate and evaluation.

Every loss returns its value with its closed-form gradient with respect to
the head outputs it reads: softmax minus one-hot for the classifier terms
(FixMatch, arXiv 2001.07685), the two-way softmax gradient for the detector
terms (OpenMatch, arXiv 2105.14148). Their tape twins in `tensor_losses`
are the oracle the tests compare them with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def id_probs(id_logits: np.ndarray, ood_logits: np.ndarray) -> np.ndarray:
    """The two-way softmax probability of ID for each per-class (ID, OOD) logit pair."""
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    e_ood = np.exp(ood_logits - shift)
    return e_id / (e_id + e_ood)


@dataclass(frozen=True)
class HeadWeights:
    lambda_u: float = 1.0
    lambda_em: float = 0.1
    lambda_socr: float = 0.5
    lambda_neg: float = 1.0
    lambda_cc: float = 1.0
    lambda_od: float = 1.0
    lambda_sna: float = 0.01
    tau_pl: float = 0.95
    eta_neg: float = 0.05

    def __post_init__(self):
        for name in ("lambda_u", "lambda_em", "lambda_socr", "lambda_neg",
                     "lambda_cc", "lambda_od", "lambda_sna"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.tau_pl <= 1.0:
            raise ValueError("tau_pl must lie in [0, 1]")
        if not 0.0 < self.eta_neg < 1.0:
            raise ValueError("eta_neg must lie in (0, 1)")


def one_hot(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    out = np.zeros((y.size, num_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def two_way_log_probs(id_logits: np.ndarray, ood_logits: np.ndarray):
    """Log-probabilities of the per-class (ID, OOD) softmax, straight from the
    logits, so they stay finite when a probability underflows to zero."""
    shift = np.maximum(id_logits, ood_logits)
    log_z = np.log(np.exp(id_logits - shift) + np.exp(ood_logits - shift)) + shift
    return id_logits - log_z, ood_logits - log_z


def ce(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (value, gradient w.r.t. the logits): (softmax - onehot) / B.
    """
    return consistency(logits, labels, np.ones(len(logits)))


def consistency(strong_logits, pseudo, accept) -> tuple[float, np.ndarray]:
    """Hard pseudo-label consistency: cross-entropy of the strong view against
    frozen weak-view pseudo-labels, counted only where `accept` is set.

    The mean runs over the full batch, so rejected samples contribute zero.
    Returns (value, gradient w.r.t. the strong logits).
    """
    n, k = strong_logits.shape
    kept = np.asarray(accept, dtype=np.float64)[:, None]
    y = one_hot(pseudo, k) * kept
    shift = np.max(strong_logits, axis=1, keepdims=True)
    log_p = strong_logits - (np.log(np.exp(strong_logits - shift).sum(axis=1, keepdims=True))
                             + shift)
    value = -(log_p * y).sum(axis=1).sum() * (1.0 / n)
    return float(value), (np.exp(log_p) * kept - y) * (1.0 / n)


def ova(id_logits, ood_logits, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Binary cross-entropy over the K one-vs-all pairs, per labeled sample.

    The true class is trained toward ID, every other class toward OOD;
    normalized by batch size. Returns (value, grad ID logits, grad OOD logits).
    """
    n, k = id_logits.shape
    y = one_hot(labels, k)
    log_p_id, log_p_ood = two_way_log_probs(id_logits, ood_logits)
    value = -(log_p_id * y + log_p_ood * (1.0 - y)).sum(axis=1).sum() * (1.0 / n)
    g_id = (np.exp(log_p_id) - y) * (1.0 / n)
    return float(value), g_id, -g_id


def em(id_logits, ood_logits) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean binary entropy of the per-class (ID, OOD) pairs; 0*log(0) is 0.

    Returns (value, grad ID logits, grad OOD logits).
    """
    n = id_logits.shape[0]
    log_p_id, log_p_ood = two_way_log_probs(id_logits, ood_logits)
    p_id, p_ood = np.exp(log_p_id), np.exp(log_p_ood)
    value = (-(p_id * log_p_id + p_ood * log_p_ood)).sum(axis=1).sum() * (1.0 / n)
    g_id = -(p_id * p_ood * (log_p_id - log_p_ood)) * (1.0 / n)
    return float(value), g_id, -g_id


def socr(id_logits, id_logits2) -> tuple[float, np.ndarray, np.ndarray]:
    """Squared disagreement of the detector's raw ID logits across two weak views.

    Returns (value, grad first view, grad second view).
    """
    n = id_logits.shape[0]
    diff = id_logits - id_logits2
    value = (diff * diff).sum(axis=1).sum() * (1.0 / n)
    g = diff * (2.0 / n)
    return float(value), g, -g


def negatives(id_logits, ood_logits, eta_neg: float) -> np.ndarray:
    """Pseudo-negative mask: 1.0 where the two-way ID probability is below eta_neg.

    Compares the log-probabilities `neg` uses, so the mask agrees bitwise
    with the loss's values.
    """
    log_p_id = two_way_log_probs(id_logits, ood_logits)[0]
    return (log_p_id < np.log(eta_neg)).astype(np.float64)


def neg(id_logits, ood_logits, selected) -> tuple[float, np.ndarray, np.ndarray]:
    """Push confidently-OOD classes further toward OOD.

    For each sample, averages -log(OOD probability) over the classes the
    frozen mask `selected` marks (see `negatives`); samples with no selected
    class contribute zero. Returns (value, grad ID logits, grad OOD logits).
    """
    n = id_logits.shape[0]
    log_p_id, log_p_ood = two_way_log_probs(id_logits, ood_logits)
    counts = selected.sum(axis=1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    value = (-(log_p_ood * selected).sum(axis=1) * scale).sum() * (1.0 / n)
    g_id = selected * (scale * (1.0 / n))[:, None] * np.exp(log_p_id)
    return float(value), g_id, -g_id


def compose(terms: dict, weights: dict) -> dict:
    """The composites sna, cc and od and the weighted total, from the nine leaves.

    Works on floats (training and log audits) and on tape tensors (the
    gradient oracle) alike.
    """
    w = weights
    sna = (w["lambda_usna"] * terms["usna"] + w["lambda_ia"] * terms["ia"]
           + w["lambda_pa"] * terms["pa"])
    cc = terms["x"] + w["lambda_u"] * terms["u"]
    od = (terms["ova"] + w["lambda_em"] * terms["em"] + w["lambda_socr"] * terms["socr"]
          + w["lambda_neg"] * terms["neg"])
    total = w["lambda_cc"] * cc + w["lambda_od"] * od + w["lambda_sna"] * sna
    return {"sna": sna, "cc": cc, "od": od, "total": total}
