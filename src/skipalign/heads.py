"""Classifier and detector losses, their composition, and the step's row kernels.

The closed-set side is supervised cross-entropy plus FixMatch-style hard
pseudo-label consistency. The detector side trains K binary sub-classifiers
whose per-class (ID, OOD) pair comes from a two-way softmax, with entropy
sharpening, cross-view consistency, and a pseudo-negative term on top.

A step takes each softmax once over its stacked batch (`log_softmax`,
`two_way`); every loss reads its view's rows of them and returns its value
with its closed-form gradient w.r.t. the head outputs: softmax minus one-hot
for the classifier terms (FixMatch, arXiv 2001.07685), the two-way softmax
gradient for the detector terms (OpenMatch, arXiv 2105.14148). Their tape
twins in `tensor_losses` are the oracle the tests compare them with. The gate,
evaluation and the prototypes call the same kernels, and `normalize` for unit
rows, which rejects a zero or non-finite row rather than hide an upstream bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Norms below this are treated as degenerate rather than normalized.
MIN_NORM = 1e-30


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


def normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and the (B, 1) norms they were divided by. A row whose norm is below
    MIN_NORM or not finite (its squares overflow from about 1.3e154) is an error."""
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if not ((norms >= MIN_NORM) & (norms < np.inf)).all():  # a NaN norm fails both
        raise ValueError("degenerate vector: cannot normalize a zero or non-finite row")
    return z / norms, norms


def log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's log-softmax, finite where a probability underflows, and softmax."""
    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1, keepdims=True)
    return logits - (np.log(total) + shift), e / total


def two_way(id_logits: np.ndarray, ood_logits: np.ndarray):
    """The per-class (ID, OOD) softmax of every row: (log_p_id, log_p_ood, p_id, id_prob).

    The log-probabilities stay finite where a probability underflows; p_id is
    exp(log_p_id), which the losses read, and id_prob is e_id / (e_id + e_ood), which
    the dual gate and the OOD scores read.
    """
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    total = e_id + np.exp(ood_logits - shift)
    log_z = np.log(total) + shift
    log_p_id = id_logits - log_z
    return log_p_id, ood_logits - log_z, np.exp(log_p_id), e_id / total


def ce(log_p, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of `log_softmax` rows against integer labels.

    Returns (value, gradient w.r.t. the logits): (softmax - onehot) / B.
    """
    return consistency(log_p, labels, np.ones(len(log_p)))


def consistency(log_p, pseudo, accept) -> tuple[float, np.ndarray]:
    """Hard pseudo-label consistency: cross-entropy of the strong view's rows
    against frozen weak-view pseudo-labels, counted only where `accept` is set.

    The mean runs over the full batch, so rejected samples contribute zero.
    Returns (value, gradient w.r.t. the strong logits).
    """
    n, k = log_p.shape
    kept = np.asarray(accept, dtype=np.float64)[:, None]
    y = one_hot(pseudo, k) * kept
    value = -(log_p * y).sum(axis=1).sum() * (1.0 / n)
    return float(value), (np.exp(log_p) * kept - y) * (1.0 / n)


def ova(log_p_id, log_p_ood, p_id, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Binary cross-entropy over the K one-vs-all pairs of `two_way` rows.

    The true class is trained toward ID, every other class toward OOD;
    normalized by batch size. Returns (value, grad ID logits, grad OOD logits).
    """
    n, k = log_p_id.shape
    y = one_hot(labels, k)
    value = -(log_p_id * y + log_p_ood * (1.0 - y)).sum(axis=1).sum() * (1.0 / n)
    g_id = (p_id - y) * (1.0 / n)
    return float(value), g_id, -g_id


def em(log_p_id, log_p_ood, p_id) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean binary entropy of the per-class pairs of `two_way` rows; 0*log(0) is 0.

    Returns (value, grad ID logits, grad OOD logits).
    """
    n = log_p_id.shape[0]
    p_ood = np.exp(log_p_ood)
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


def negatives(log_p_id, eta_neg: float) -> np.ndarray:
    """Pseudo-negative mask: 1.0 where the two-way ID probability is below eta_neg.

    Compares the `two_way` log-probabilities `neg` reads, so the mask agrees
    bitwise with the loss's values.
    """
    return (log_p_id < np.log(eta_neg)).astype(np.float64)


def neg(log_p_ood, p_id, selected) -> tuple[float, np.ndarray, np.ndarray]:
    """Push confidently-OOD classes further toward OOD.

    For each `two_way` row, averages -log(OOD probability) over the classes the
    frozen mask `selected` marks (see `negatives`); rows with no selected class
    contribute zero. Returns (value, grad ID logits, grad OOD logits).
    """
    n = p_id.shape[0]
    counts = selected.sum(axis=1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    value = (-(log_p_ood * selected).sum(axis=1) * scale).sum() * (1.0 / n)
    g_id = selected * (scale * (1.0 / n))[:, None] * p_id
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
