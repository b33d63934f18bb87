"""Classifier and one-vs-all detector losses, and the objective's composition.

The closed-set side is supervised cross-entropy plus FixMatch-style hard
pseudo-label consistency. The detector side trains K binary sub-classifiers
whose per-class (ID, OOD) pair comes from a two-way softmax, with entropy
sharpening, cross-view consistency, and a pseudo-negative term on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

# Probabilities are floored before every log; exact zeros occur in
# hand-built test inputs.
PROB_FLOOR = 1e-30


@dataclass(frozen=True)
class OvaOutput:
    """Per-class (ID, OOD) logits and their two-way softmax probabilities."""

    id_logits: np.ndarray   # (B, K)
    ood_logits: np.ndarray  # (B, K)
    id_probs: np.ndarray
    ood_probs: np.ndarray

    @classmethod
    def from_logits(cls, id_logits, ood_logits) -> "OvaOutput":
        s_id = as_matrix(id_logits)
        s_ood = as_matrix(ood_logits)
        if s_id.shape != s_ood.shape:
            raise ValueError(f"shape mismatch: {s_id.shape} vs {s_ood.shape}")
        shift = np.maximum(s_id, s_ood)
        e_id = np.exp(s_id - shift)
        e_ood = np.exp(s_ood - shift)
        z = e_id + e_ood
        return cls(id_logits=s_id, ood_logits=s_ood,
                   id_probs=e_id / z, ood_probs=e_ood / z)

    @classmethod
    def from_probs(cls, id_probs) -> "OvaOutput":
        """Build directly from ID probabilities (logits implied via logit fn)."""
        p = as_matrix(id_probs)
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError("id probabilities must lie strictly inside (0, 1)")
        logit = np.log(p) - np.log1p(-p)
        return cls(id_logits=logit, ood_logits=np.zeros_like(p),
                   id_probs=p, ood_probs=1.0 - p)

    @property
    def num_classes(self) -> int:
        return self.id_logits.shape[1]


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


def _check_labels(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError("labels must be 1-D")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"label out of range [0, {num_classes})")
    return y


def ce_loss(probs, labels) -> float:
    """Mean negative log-probability of the true class."""
    p = as_matrix(probs)
    y = _check_labels(labels, p.shape[1])
    if y.size != p.shape[0]:
        raise ValueError("labels length does not match batch size")
    picked = p[np.arange(p.shape[0]), y]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def consistency_loss(weak_probs, strong_probs, tau_pl: float) -> tuple[float, int]:
    """Hard pseudo-label consistency between two views of unlabeled data.

    Samples whose weak-view confidence clears tau_pl are pseudo-labeled with
    the weak argmax; the strong view is scored against that label. The mean
    runs over the full batch, so rejected samples contribute zero.
    """
    w = as_matrix(weak_probs)
    s = as_matrix(strong_probs)
    if w.shape != s.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {s.shape}")
    pseudo = np.argmax(w, axis=1)
    conf = w[np.arange(w.shape[0]), pseudo]
    accept = conf > tau_pl
    accepted = int(accept.sum())
    if accepted == 0:
        return 0.0, 0
    picked = s[np.arange(s.shape[0]), pseudo]
    losses = -np.log(np.maximum(picked, PROB_FLOOR)) * accept
    return float(losses.sum() / w.shape[0]), accepted


def ova_loss(out: OvaOutput, labels) -> float:
    """Binary cross-entropy over the K one-vs-all pairs, per labeled sample.

    The true class is trained toward ID, every other class toward OOD;
    normalized by batch size.
    """
    y = _check_labels(labels, out.num_classes)
    if y.size != out.id_probs.shape[0]:
        raise ValueError("labels length does not match batch size")
    one_hot = np.zeros_like(out.id_probs)
    one_hot[np.arange(y.size), y] = 1.0
    log_id = np.log(np.maximum(out.id_probs, PROB_FLOOR))
    log_ood = np.log(np.maximum(out.ood_probs, PROB_FLOOR))
    per_sample = -(one_hot * log_id + (1.0 - one_hot) * log_ood).sum(axis=1)
    return float(per_sample.mean())


def em_loss(out: OvaOutput) -> float:
    """Mean binary entropy of the per-class (ID, OOD) pairs; 0*log(0) is 0."""
    p_id = out.id_probs
    p_ood = out.ood_probs
    ent = -(p_id * np.log(np.maximum(p_id, PROB_FLOOR))
            + p_ood * np.log(np.maximum(p_ood, PROB_FLOOR)))
    return float(ent.sum(axis=1).mean())


def socr_loss(out_w: OvaOutput, out_w2: OvaOutput) -> float:
    """Squared disagreement of the detector's raw ID logits across two weak views."""
    a, b = out_w.id_logits, out_w2.id_logits
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(((a - b) ** 2).sum(axis=1).mean())


def neg_loss(out: OvaOutput, eta_neg: float) -> float:
    """Push confidently-OOD classes further toward OOD.

    For each sample, averages -log(OOD probability) over the classes whose
    ID probability sits below eta_neg; samples with no qualifying class
    contribute zero. The OOD probability is the exact complement of the ID
    probability under the two-way softmax.
    """
    if not 0.0 < eta_neg < 1.0:
        raise ValueError("eta_neg must lie in (0, 1)")
    selected = out.id_probs < eta_neg
    counts = selected.sum(axis=1)
    log_ood = np.log(np.maximum(out.ood_probs, PROB_FLOOR))
    per_sample = np.where(counts > 0,
                          -(selected * log_ood).sum(axis=1) / np.maximum(counts, 1),
                          0.0)
    return float(per_sample.mean())


def compose(terms: dict, weights: dict) -> dict:
    """The composites sna, cc and od and the weighted total, from the nine leaves.

    Works on floats (log audits) and on tape tensors (training) alike. The
    expression shapes fix the order in which backward sums gradients.
    """
    w = weights
    sna = (w["lambda_usna"] * terms["usna"] + w["lambda_ia"] * terms["ia"]
           + w["lambda_pa"] * terms["pa"])
    cc = terms["x"] + w["lambda_u"] * terms["u"]
    od = (terms["ova"] + w["lambda_em"] * terms["em"] + w["lambda_socr"] * terms["socr"]
          + w["lambda_neg"] * terms["neg"])
    total = w["lambda_cc"] * cc + w["lambda_od"] * od + w["lambda_sna"] * sna
    return {"sna": sna, "cc": cc, "od": od, "total": total}
