"""Training loop: batch assembly, multi-view forwards, the full objective,
momentum SGD under a cosine schedule, and per-epoch prototype refresh.

Per iteration: sample a labeled batch and gamma-times-larger unlabeled
batch, draw augmented views, forward them as one stacked batch, take each
per-row softmax once on it (`step_rows`), freeze the gate/pseudo-label
decisions from the weak unlabeled rows, evaluate every loss on its view's
rows into one full-batch gradient per head, backprop the weighted total by
hand through the network (`net.backward`), and step. Gate-accepted unlabeled
embeddings accumulate across the epoch and feed the prototype refresh at the
epoch boundary; the labeled side of the refresh is a clean (unaugmented)
pass over the full labeled set.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import net as net_mod
from .heads import (HeadWeights, ce, compose, consistency, em, log_softmax, neg, negatives, ova,
                    socr, two_way)
from .linalg import normalize
from .metrics import EvalReport, evaluate
from .net import ForwardResult, NetSpec, ParamState, forward, init_params, sgd_step
from .prototypes import EmbeddingBatch, PrototypeSet, refresh
from .sna import GateMask, SnaWeights, dual_gate, ia, pa, usna
from .synthdata import Split, augment_views

MOMENTUM, WEIGHT_DECAY = 0.9, 5e-4  # the SGD step's, the same in every run


class TrainingDiverged(RuntimeError):
    """Raised when the loss or an activation goes non-finite."""

    def __init__(self, message: str, last_report: dict | None = None):
        super().__init__(message)
        self.last_report = last_report


@dataclass(frozen=True)
class TrainConfig:
    """Settable trainer values; a run reports `metrics.SCORE_RULES[0]` (`eval` takes others)."""
    epochs: int = 12
    iters_per_epoch: int = 40
    batch_size: int = 16
    gamma: float = 2.0
    lr0: float = 0.01
    head: HeadWeights = field(default_factory=HeadWeights)
    sna: SnaWeights = field(default_factory=SnaWeights)
    tau_id: float = 0.99
    eta_id: float = 0.5
    gate_temperature: float = 0.5
    r_u: float = 0.5
    seed: int = 2

    def __post_init__(self):
        if self.epochs < 1 or self.iters_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs, iters_per_epoch and batch_size must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lr0 < 0:
            raise ValueError("lr0 must be non-negative")
        for name in ("tau_id", "eta_id", "r_u"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.gate_temperature <= 0:
            raise ValueError("gate_temperature must be positive")
        u = self.gamma * self.batch_size
        if abs(u - round(u)) > 1e-9:
            raise ValueError("gamma * batch_size must be an integer")

    @property
    def unlabeled_batch(self) -> int:
        return int(round(self.gamma * self.batch_size))

    @functools.cached_property
    def weights_and_slopes(self) -> tuple[dict, dict]:
        """The loss weights, and each leaf's slope in the composed total.

        Derived once per config object rather than per step.
        """
        fields = {**vars(self.head), **vars(self.sna)}
        weights = {name: value for name, value in fields.items() if name.startswith("lambda_")}
        # compose is linear in the leaves: its total at a one-hot leaf vector
        # is the leaf's slope.
        slopes = {leaf: compose({name: float(name == leaf) for name in LEAVES}, weights)["total"]
                  for leaf in LEAVES}
        return weights, slopes


@dataclass
class RunLog:
    """Append-only record of a run; serializable at any point."""

    iterations: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    final_prototypes: PrototypeSet | None = None
    final_report: EvalReport | None = None  # the last epoch's evaluation

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.iterations:
                fh.write(json.dumps({"type": "iteration", **record}) + "\n")
            for record in self.epochs:
                fh.write(json.dumps({"type": "epoch", **record}) + "\n")


def lr_at(step: int, total_steps: int, lr0: float) -> float:
    """Plain half-cosine decay from lr0 to zero."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _batches(pool_size: int, batch: int, rng: np.random.Generator):
    """Exact-size batches drawn from reshuffled permutations of a pool."""
    queue: list[int] = []
    while True:
        while len(queue) < batch:
            queue.extend(rng.permutation(pool_size).tolist())
        yield np.asarray(queue[:batch], dtype=np.int64)
        del queue[:batch]


def train(split: Split, netspec: NetSpec, cfg: TrainConfig) -> tuple[ParamState, RunLog]:
    """Run the full loop; deterministic given (split, netspec, cfg).

    A step's record starts as its step, epoch and lr; its closure fills in the rest,
    and it is logged once the SGD step is taken. A ValueError in the epochs (a
    non-finite value or a zero row in a step or a prototype refresh) ends the run as
    TrainingDiverged, reporting the last logged record. The last epoch's evaluation
    runs after them, outside that boundary.
    """
    params = init_params(netspec)
    runlog = RunLog()
    # Labeled means only: the gate is not trustworthy before training.
    protos = _refresh_prototypes(params, split, cfg, [])

    rng = np.random.default_rng(cfg.seed)
    labeled_batches = _batches(split.labeled_x.shape[0], cfg.batch_size, rng)
    unlabeled_batches = _batches(split.unlabeled_x.shape[0], cfg.unlabeled_batch, rng)
    velocity: np.ndarray | None = None
    total_steps = cfg.epochs * cfg.iters_per_epoch

    try:
        for epoch in range(cfg.epochs):
            unit_protos = protos.unit_directions()
            accepted: list[EmbeddingBatch] = []
            for it in range(cfg.iters_per_epoch):
                step = epoch * cfg.iters_per_epoch + it
                lr = lr_at(step, total_steps, cfg.lr0)
                li, ui = next(labeled_batches), next(unlabeled_batches)
                x = augment_views(split.labeled_x[li], split.unlabeled_x[ui], rng, split.scenario)
                record = {"step": step, "epoch": epoch, "lr": lr}
                closure = _make_closure(cfg, split.labeled_y[li], unit_protos, record, accepted)
                grads = net_mod.backward(params, x, closure)
                params, velocity = sgd_step(params, grads, lr=lr, momentum=MOMENTUM,
                                            weight_decay=WEIGHT_DECAY, velocity=velocity)
                runlog.iterations.append(record)

            protos = _refresh_prototypes(params, split, cfg, accepted)
            runlog.final_prototypes = protos
            runlog.epochs.append({
                "epoch": epoch,
                "prototypes": {
                    "n_labeled": protos.n_labeled.tolist(),
                    "n_unlabeled": protos.n_unlabeled.tolist(),
                },
            })
    except ValueError as err:
        last = runlog.iterations[-1] if runlog.iterations else None
        raise TrainingDiverged(str(err), last_report=last) from err

    runlog.final_report = evaluate(params, split, protos.unit_directions())
    runlog.epochs[-1]["eval"] = runlog.final_report.to_dict()
    return params, runlog


def _refresh_prototypes(params: ParamState, split: Split, cfg: TrainConfig,
                        accepted: list[EmbeddingBatch]) -> PrototypeSet:
    """Prototypes from a clean (unaugmented) pass over the labeled set and the
    gate-accepted rows by predicted class; with none, the labeled means."""
    labeled = EmbeddingBatch(forward(params, split.labeled_x).embeddings, split.labeled_y)
    unlabeled = (EmbeddingBatch(np.concatenate([b.vectors for b in accepted]),
                                np.concatenate([b.labels for b in accepted]))
                 if accepted else None)
    return refresh(labeled, unlabeled, cfg.gamma, cfg.r_u, params.spec.num_classes)


# The objective's leaf terms, in the order they are logged.
LEAVES = ("x", "u", "ova", "em", "socr", "neg", "usna", "ia", "pa")


class StepRows(NamedTuple):
    """A step's stacked forward, the rows of its views x_w, u_w, u_w2 and u_s
    (slices x, u, u2, s), and its per-row softmaxes, each taken once on the
    whole stack: `heads.log_softmax` (log_p, probs) and `heads.two_way`."""

    out: ForwardResult
    x: slice
    u: slice
    u2: slice
    s: slice
    log_p: np.ndarray
    probs: np.ndarray
    log_p_id: np.ndarray
    log_p_ood: np.ndarray
    p_id: np.ndarray
    id_prob: np.ndarray


def step_rows(out: ForwardResult, n_labeled: int) -> StepRows:
    """The rows of a forward of n_labeled x_w rows stacked on three equal unlabeled views."""
    n, b = len(out.cc_logits), n_labeled
    u = (n - b) // 3
    return StepRows(out, slice(0, b), slice(b, b + u), slice(b + u, b + 2 * u),
                    slice(b + 2 * u, n), *log_softmax(out.cc_logits),
                    *two_way(out.id_logits, out.ood_logits))


@dataclass(frozen=True)
class Decisions:
    """One step's discrete choices, frozen from forward values.

    Gradients never flow through gates, pseudo-labels or negative masks.
    """

    gate: GateMask          # dual gate on the weak unlabeled view; also picks refresh rows
    pseudo: np.ndarray      # hard pseudo-labels from the weak view
    pl_accept: np.ndarray   # pseudo-labels whose confidence clears tau_pl
    neg_w: np.ndarray       # pseudo-negative masks, weak and strong view
    neg_s: np.ndarray


def freeze_decisions(rows: StepRows, cfg: TrainConfig) -> Decisions:
    """Every frozen per-step choice, from the weak and strong unlabeled rows."""
    u = rows.u
    gate_probs = log_softmax(rows.out.cc_logits[u] / cfg.gate_temperature)[1]
    pl_probs = rows.probs[u]
    pseudo = pl_probs.argmax(axis=1)
    negative = negatives(rows.log_p_id, cfg.head.eta_neg)
    return Decisions(
        gate=dual_gate(gate_probs, rows.id_prob[u], cfg.tau_id, cfg.eta_id), pseudo=pseudo,
        pl_accept=pl_probs[np.arange(pseudo.size), pseudo] > cfg.head.tau_pl,
        neg_w=negative[u], neg_s=negative[rows.s])


def objective(rows: StepRows, labels: np.ndarray, unit_protos: np.ndarray,
              decisions: Decisions, cfg: TrainConfig) -> tuple[dict, dict]:
    """The training objective in closed form, as (terms, grads).

    `terms` holds the nine leaf values, then the composites sna, cc, od and
    the total from `compose`. A leaf whose weight is zero is not evaluated
    and enters as 0.0. grads maps each head output to the total's gradient
    over the whole stack, the form `net.backward` takes; where terms share
    rows, their slope-weighted gradients add up in the order of LEAVES.
    """
    head, sna_w = cfg.head, cfg.sna
    weights, slopes = cfg.weights_and_slopes
    x, u, u2, s = rows.x, rows.u, rows.u2, rows.s
    log_p_id, log_p_ood, p_id = rows.log_p_id, rows.log_p_ood, rows.p_id
    terms = dict.fromkeys(LEAVES, 0.0)
    g_cc, g_id, g_ood = np.zeros((3, *rows.log_p.shape))
    g_z = np.zeros(rows.out.embeddings.shape)

    terms["x"], g = ce(rows.log_p[x], labels)
    g_cc[x] = slopes["x"] * g
    if head.lambda_u > 0:
        terms["u"], g = consistency(rows.log_p[s], decisions.pseudo, decisions.pl_accept)
        g_cc[s] = slopes["u"] * g
    terms["ova"], g, g2 = ova(log_p_id[x], log_p_ood[x], p_id[x], labels)
    g_id[x], g_ood[x] = slopes["ova"] * g, slopes["ova"] * g2
    if head.lambda_em > 0:
        terms["em"], g, g2 = em(log_p_id[u], log_p_ood[u], p_id[u])
        g_id[u], g_ood[u] = slopes["em"] * g, slopes["em"] * g2
    if head.lambda_socr > 0:
        terms["socr"], g, g2 = socr(rows.out.id_logits[u], rows.out.id_logits[u2])
        g_id[u] += slopes["socr"] * g
        g_id[u2] = slopes["socr"] * g2
    if head.lambda_neg > 0:
        # Negatives are mined on both the weak and the strong view.
        weak, g, g2 = neg(log_p_ood[u], p_id[u], decisions.neg_w)
        strong, h, h2 = neg(log_p_ood[s], p_id[s], decisions.neg_s)
        terms["neg"] = weak + strong
        g_id[u] += slopes["neg"] * g
        g_ood[u] += slopes["neg"] * g2
        g_id[s], g_ood[s] = slopes["neg"] * h, slopes["neg"] * h2

    # x_w and u_w are adjacent rows: normalize those an enabled term reads in one pass.
    t, b = sna_w.temperature, x.stop
    lo = 0 if sna_w.lambda_ia > 0 or sna_w.lambda_pa > 0 else b
    unit, norms = normalize(rows.out.embeddings[lo:u.stop if sna_w.lambda_usna > 0 else b])
    if sna_w.lambda_usna > 0:
        gate = decisions.gate
        terms["usna"], g = usna(unit[b - lo:], norms[b - lo:], unit_protos, gate.phi,
                                gate.pred_class, t)
        g_z[u] = slopes["usna"] * g
    if sna_w.lambda_ia > 0:
        terms["ia"], g = ia(unit[:b], norms[:b], labels, t)
        g_z[x] = slopes["ia"] * g
    if sna_w.lambda_pa > 0:
        terms["pa"], g = pa(unit[:b], norms[:b], unit_protos, labels, t)
        g_z[x] += slopes["pa"] * g
    terms.update(compose(terms, weights))
    return terms, {"embeddings": g_z, "cc_logits": g_cc, "id_logits": g_id, "ood_logits": g_ood}


def _make_closure(cfg: TrainConfig, labels: np.ndarray, unit_protos: np.ndarray, record: dict,
                  accepted: list[EmbeddingBatch]):
    """The step's objective for `net.backward`. It fills in the rest of the step's record
    and appends the weak unlabeled rows the gate accepted, by predicted class, to accepted."""
    def closure(out):
        rows = step_rows(out, len(labels))
        decisions = freeze_decisions(rows, cfg)
        terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
        total = terms.pop("total")
        gate = decisions.gate
        record.update({
            "terms": terms, "total": total,
            "batch_labeled": len(labels), "batch_unlabeled": len(gate.phi),
            "gate": {"accepted": gate.accepted,
                     "negatives": int((decisions.neg_w.sum(axis=1) > 0).sum()),
                     "pl_accepted": int(decisions.pl_accept.sum())},
            "gate_detail": {name: getattr(gate, name).tolist()
                            for name in ("phi", "cc_conf", "od_conf", "pred_class")},
        })
        selected = gate.phi == 1
        accepted.append(EmbeddingBatch(out.embeddings[rows.u][selected],
                                       gate.pred_class[selected]))
        return total, grads

    return closure
