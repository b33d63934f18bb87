"""Tape twins of the closed-form losses in `heads` and `sna`: the gradient oracle.

Each builder computes its loss operation for operation as the closed form
does (same log-sum-exp shifts, same reductions), so values agree to float
rounding, and reverse mode derives the gradient the closed form writes
down; the tests assert both. Discrete decisions (gates, pseudo-labels,
negative selections) enter as constants: gradients never flow through
threshold comparisons or argmaxes.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, constant, logsumexp, normalize_rows
from .heads import one_hot

_NEG_INF = -1e30


def ce_graph(cc_logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    log_probs = cc_logits - logsumexp(cc_logits, axis=1)
    y = one_hot(labels, cc_logits.shape[1])
    return -(log_probs * y).sum(axis=1).mean()


def consistency_graph(strong_logits: Tensor, pseudo_labels: np.ndarray,
                      accept: np.ndarray) -> Tensor:
    """Cross-entropy of the strong view against frozen hard pseudo-labels.

    `accept` marks which samples cleared the confidence threshold; the mean
    runs over the full batch.
    """
    log_probs = strong_logits - logsumexp(strong_logits, axis=1)
    y = one_hot(pseudo_labels, strong_logits.shape[1])
    weights = y * np.asarray(accept, dtype=np.float64)[:, None]
    batch = strong_logits.shape[0]
    return -(log_probs * weights).sum() * (1.0 / batch)


def _two_way_log_probs(id_logits: Tensor, ood_logits: Tensor):
    """Log and plain probabilities of the per-class (ID, OOD) softmax.

    Log-probabilities come from logits directly, so they stay finite even
    when a probability underflows to zero.
    """
    shift = np.maximum(id_logits.data, ood_logits.data)
    e_id = (id_logits - shift).exp()
    e_ood = (ood_logits - shift).exp()
    log_z = (e_id + e_ood).log() + shift
    log_p_id = id_logits - log_z
    log_p_ood = ood_logits - log_z
    return log_p_id, log_p_ood


def ova_graph(id_logits: Tensor, ood_logits: Tensor, labels: np.ndarray) -> Tensor:
    """One-vs-all binary cross-entropy for labeled samples."""
    log_p_id, log_p_ood = _two_way_log_probs(id_logits, ood_logits)
    y = one_hot(labels, id_logits.shape[1])
    per_sample = -(log_p_id * y + log_p_ood * (1.0 - y)).sum(axis=1)
    return per_sample.mean()


def em_graph(id_logits: Tensor, ood_logits: Tensor) -> Tensor:
    """Mean binary entropy of the (ID, OOD) pairs."""
    log_p_id, log_p_ood = _two_way_log_probs(id_logits, ood_logits)
    p_id = log_p_id.exp()
    p_ood = log_p_ood.exp()
    ent = -(p_id * log_p_id + p_ood * log_p_ood)
    return ent.sum(axis=1).mean()


def socr_graph(a: Tensor, b: Tensor) -> Tensor:
    """Squared cross-view disagreement, summed per sample, batch mean."""
    return ((a - b) ** 2).sum(axis=1).mean()


def neg_graph(id_logits: Tensor, ood_logits: Tensor, selected: np.ndarray) -> Tensor:
    """Pseudo-negative loss over a frozen selection mask (see `heads.negatives`)."""
    log_p_ood = _two_way_log_probs(id_logits, ood_logits)[1]
    counts = selected.sum(axis=1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    per_sample = -(log_p_ood * selected).sum(axis=1) * scale
    return per_sample.mean()


def usna_graph(embeddings: Tensor, unit_protos: np.ndarray, phi: np.ndarray,
               pred_class: np.ndarray, temperature: float) -> Tensor:
    """Batch-mean unlabeled selective non-alignment loss.

    Prototypes, the gate, and the predicted classes are constants; only the
    embeddings carry gradient.
    """
    sims = normalize_rows(embeddings) @ constant(unit_protos.T)
    scaled = sims * (1.0 / temperature)
    pull_pick = one_hot(pred_class, unit_protos.shape[0])
    pull_pick *= np.asarray(phi, dtype=np.float64)[:, None]
    pulled = (scaled * pull_pick).sum(axis=1)
    lse = logsumexp(scaled, axis=1).reshape(-1)
    return (lse - pulled).mean()


def pa_graph(embeddings: Tensor, unit_protos: np.ndarray, labels: np.ndarray,
             temperature: float) -> Tensor:
    """Prototype alignment: the gate is always open for labeled samples."""
    ones = np.ones(embeddings.shape[0], dtype=np.int64)
    return usna_graph(embeddings, unit_protos, ones, labels, temperature)


def ia_graph(embeddings: Tensor, labels: np.ndarray, temperature: float) -> Tensor:
    """Instance-wise alignment over a labeled batch on the tape.

    Mirrors the numpy version: cosine similarities on normalized rows, the
    anchor itself masked out of the denominator, anchors without positives
    excluded from the mean.
    """
    y = np.asarray(labels, dtype=np.int64)
    batch = y.size
    zh = normalize_rows(embeddings)
    sims = (zh @ zh.T) * (1.0 / temperature)
    diag_mask = np.zeros((batch, batch))
    np.fill_diagonal(diag_mask, _NEG_INF)
    lse = logsumexp(sims + diag_mask, axis=1)
    positives = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(positives, 0.0)
    counts = positives.sum(axis=1)
    contributing = counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return constant(0.0)
    log_prob = sims - lse
    anchor_weights = np.where(contributing, 1.0 / np.maximum(counts, 1.0), 0.0)
    per_anchor = -(log_prob * positives).sum(axis=1) * anchor_weights
    return per_anchor.sum() * (1.0 / n_anchors)
