"""Classifier and detector losses, their composition, and the step's row kernels.

The closed-set side is supervised cross-entropy plus FixMatch-style hard
pseudo-label consistency, one `classifier` kernel with a target row per
sample. The detector side trains K binary sub-classifiers whose per-class
(ID, OOD) pair comes from a two-way softmax, with entropy sharpening,
cross-view consistency, and a pseudo-negative term on top.

A step takes each softmax once over its stacked batch (`log_softmax`,
`two_way`); every loss reads its rows of them and returns its loss with its
closed-form gradient w.r.t. the head outputs, already weighted per row:
softmax minus target for the classifier (FixMatch, arXiv 2001.07685), the
two-way softmax gradient for the detector terms (OpenMatch, arXiv 2105.14148).
Their tape twins in `tensor_losses` are the oracle the tests compare them
with. The gate, evaluation and the prototypes call the same kernels, and
`normalize` for unit rows, which rejects a zero or non-finite row rather than
hide an upstream bug. `norm`, the one Euclidean norm (the data's cluster
placement calls it too), is a numpy sum of squares, which no BLAS kernel rounds.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def log_eta_neg(self) -> float:
        """`negatives`' threshold, taken once per config object rather than per step."""
        return np.log(self.eta_neg)


def one_hot(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    out = np.zeros((y.size, num_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def norm(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm over the last axis, summed by numpy rather than BLAS."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def normalize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and the (B, 1) norms they were divided by. A row whose norm is below
    MIN_NORM or not finite (its squares overflow from about 1.3e154) is an error."""
    norms = norm(z)[:, None]
    if not ((norms >= MIN_NORM) & (norms < np.inf)).all():  # a NaN norm fails both
        raise ValueError("degenerate vector: cannot normalize a zero or non-finite row")
    return z / norms, norms


def log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's log-softmax, finite where a probability underflows, its softmax, and
    its (B, 1) log-sum-exp."""
    # Each row's maximum, gathered at its argmax: the same value as .max(axis=1), and
    # faster on the few-column rows the heads emit.
    shift = logits[np.arange(len(logits)), logits.argmax(axis=1)][:, None]
    e = np.exp(logits - shift)
    total = np.add.reduce(e, axis=1, keepdims=True)
    lse = np.log(total) + shift
    return logits - lse, e / total, lse


def two_way(id_logits: np.ndarray, ood_logits: np.ndarray):
    """The per-class (ID, OOD) softmax of every row: (log_p_id, log_p_ood, p_id, p_ood).

    The log-probabilities stay finite where a probability underflows. p_id, the ID
    probability e_id / (e_id + e_ood), is the one the losses, the dual gate and the
    OOD scores all read; p_ood, e_ood / (e_id + e_ood), is the one `em` reads.
    """
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    e_ood = np.exp(ood_logits - shift)
    total = e_id + e_ood
    log_z = np.log(total) + shift
    return id_logits - log_z, ood_logits - log_z, e_id / total, e_ood / total


# The classifier returns each row's loss and the gradient of sum_i scale_i * loss_i,
# where scale_i is its row's weight: its term's slope in the total over its view's
# size, or 0. A detector loss returns its sum over the rows over n, a view's size,
# and the gradient of slope times that value w.r.t. the ID logits: the two-way
# softmax makes the OOD logits' gradient its negative, except for socr.


def classifier(log_p, probs, y, scale) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of `log_softmax` rows against target rows y: each row's loss, and
    the gradient w.r.t. the logits, softmax minus y, each row times its scale.

    A target row is a one-hot class or zero (a row that does not count): labels for
    supervised CE, the weak view's accepted pseudo-labels for FixMatch consistency
    (arXiv 2001.07685), whose mean runs over the full batch.
    """
    return -np.add.reduce(log_p * y, axis=1), (probs - y) * scale[:, None]


def ova(log_p_id, log_p_ood, p_id, y, n: int, slope: float) -> tuple[float, np.ndarray]:
    """Binary cross-entropy over the K one-vs-all pairs of `two_way` rows: the class
    one-hot in y toward ID, every other class toward OOD."""
    value = float(-np.add.reduce(log_p_ood + y * (log_p_id - log_p_ood), axis=None))
    return value * (1.0 / n), (p_id - y) * (slope / n)


def em(log_p_id, log_p_ood, p_id, p_ood, n: int, slope: float) -> tuple[float, np.ndarray]:
    """Binary entropy of the per-class pairs of `two_way` rows; 0*log(0) is 0."""
    value = float(-np.add.reduce(p_id * log_p_id + p_ood * log_p_ood, axis=None))
    return value * (1.0 / n), (p_ood * (log_p_ood - log_p_id)) * (p_id * (slope / n))


def socr(id_logits, id_logits2, n: int, slope: float) -> tuple[float, np.ndarray]:
    """Squared disagreement of the detector's raw ID logits across two weak views; the
    gradient is the first view's, the second's its negative."""
    diff = id_logits - id_logits2
    return float(np.add.reduce(diff * diff, axis=None)) * (1.0 / n), diff * (2.0 * (slope / n))


def negatives(log_p_id, log_eta_neg: float) -> np.ndarray:
    """Pseudo-negative mask: 1.0 where the two-way ID probability is below eta_neg.

    Compares the `two_way` log-probabilities `neg` reads with log(eta_neg), so the
    mask agrees bitwise with the loss's values.
    """
    return (log_p_id < log_eta_neg).astype(np.float64)


def neg(log_p_ood, p_id, selected, n: int, slope: float) -> tuple[float, np.ndarray]:
    """Push confidently-OOD classes further toward OOD.

    For each `two_way` row, averages -log(OOD probability) over the classes the
    frozen mask `selected` marks (see `negatives`); a row with no selected class
    contributes zero.
    """
    w = selected * (1.0 / np.maximum(np.add.reduce(selected, axis=1, keepdims=True), 1.0))
    return float(-np.add.reduce(log_p_ood * w, axis=None)) * (1.0 / n), w * (p_id * (slope / n))


def compose(terms: dict, weights: dict) -> dict:
    """The composites sna, cc and od and the weighted total, from the nine leaves.

    Works on floats (training, and the replay of a step line's composites and
    total) and on tape tensors (the gradient oracle) alike.
    """
    w = weights
    sna = (w["lambda_usna"] * terms["usna"] + w["lambda_ia"] * terms["ia"]
           + w["lambda_pa"] * terms["pa"])
    cc = terms["x"] + w["lambda_u"] * terms["u"]
    od = (terms["ova"] + w["lambda_em"] * terms["em"] + w["lambda_socr"] * terms["socr"]
          + w["lambda_neg"] * terms["neg"])
    total = w["lambda_cc"] * cc + w["lambda_od"] * od + w["lambda_sna"] * sna
    return {"sna": sna, "cc": cc, "od": od, "total": total}
