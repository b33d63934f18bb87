"""Training loop: batch assembly, multi-view forwards, the full objective,
momentum SGD under a cosine schedule, and per-epoch prototype refresh.

Per iteration: sample a labeled batch and gamma-times-larger unlabeled
batch, draw augmented views, forward them as one stacked batch, freeze the
gate/pseudo-label decisions from the weak unlabeled view, evaluate every
loss term with its closed-form gradient w.r.t. the head outputs, backprop
the weighted total by hand through the network (`net.backward`), and
step. Gate-accepted unlabeled embeddings accumulate across the epoch and
feed the prototype refresh at the epoch boundary; the labeled side of the
refresh is a clean (unaugmented) pass over the full labeled set.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import net as net_mod
from .data import EmbeddingBatch
from .heads import (HeadWeights, ce, compose, consistency, em, id_probs, neg, negatives, ova,
                    socr)
from .linalg import softmax_rows
from .metrics import SCORE_RULES, EvalReport, evaluate
from .net import ForwardResult, NetSpec, ParamState, forward, init_params, sgd_step
from .prototypes import PrototypeSet, initial_prototypes, refresh
from .sna import GateMask, SnaWeights, dual_gate, ia, pa, usna
from .synthdata import Split, augment_views


class TrainingDiverged(RuntimeError):
    """Raised when the loss or an activation goes non-finite."""

    def __init__(self, message: str, last_report: dict | None = None):
        super().__init__(message)
        self.last_report = last_report


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 12
    iters_per_epoch: int = 40
    batch_size: int = 16
    gamma: float = 2.0
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    head: HeadWeights = field(default_factory=HeadWeights)
    sna: SnaWeights = field(default_factory=SnaWeights)
    tau_id: float = 0.99
    eta_id: float = 0.5
    gate_temperature: float = 0.5
    r_u: float = 0.5
    score_rule: str = "ova_id_at_cc_argmax"
    seed: int = 2

    def __post_init__(self):
        if self.epochs < 1 or self.iters_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs, iters_per_epoch and batch_size must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lr0 < 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("lr0, momentum, weight_decay must be non-negative")
        for name in ("tau_id", "eta_id", "r_u"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.score_rule not in SCORE_RULES:
            raise ValueError(f"score_rule must be one of {', '.join(SCORE_RULES)}")
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

        Derived once per config object rather than per step, and cached on the
        object rather than by equality: equal configs can still write a weight
        as 1 or as 1.0, and the runlog records the weights as written.
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


class _CyclingSampler:
    """Exact-size batches drawn from reshuffled permutations of a pool."""

    def __init__(self, pool_size: int, batch: int, rng: np.random.Generator):
        self.pool_size = pool_size
        self.batch = batch
        self.rng = rng
        self._queue: list[int] = []

    def next(self) -> np.ndarray:
        while len(self._queue) < self.batch:
            self._queue.extend(self.rng.permutation(self.pool_size).tolist())
        idx = self._queue[:self.batch]
        del self._queue[:self.batch]
        return np.asarray(idx, dtype=np.int64)


def _clean_labeled_embeddings(params: ParamState, split: Split) -> EmbeddingBatch:
    out = forward(params, split.labeled_x)
    return EmbeddingBatch(out.embeddings, labels=split.labeled_y)


def train(split: Split, netspec: NetSpec, cfg: TrainConfig) -> tuple[ParamState, RunLog]:
    """Run the full loop; deterministic given (split, netspec, cfg)."""
    params = init_params(netspec)
    runlog = RunLog()
    protos = initial_prototypes(_clean_labeled_embeddings(params, split),
                                gamma=cfg.gamma, num_classes=netspec.num_classes)

    rng = np.random.default_rng(cfg.seed)
    labeled_sampler = _CyclingSampler(split.labeled_x.shape[0], cfg.batch_size, rng)
    unlabeled_sampler = _CyclingSampler(split.unlabeled_x.shape[0], cfg.unlabeled_batch, rng)
    velocity: np.ndarray | None = None
    total_steps = cfg.epochs * cfg.iters_per_epoch
    scenario = split.scenario

    for epoch in range(cfg.epochs):
        proto_rows: list[np.ndarray] = []
        proto_pred: list[np.ndarray] = []
        for it in range(cfg.iters_per_epoch):
            step = epoch * cfg.iters_per_epoch + it
            lr = lr_at(step, total_steps, cfg.lr0)
            li = labeled_sampler.next()
            ui = unlabeled_sampler.next()
            xb, yb = split.labeled_x[li], split.labeled_y[li]
            ub = split.unlabeled_x[ui]
            x_views = augment_views(xb, ["weak"], rng, scenario)
            u_views = augment_views(ub, ["weak", "weak2", "strong"], rng, scenario)
            inputs = {"x_w": x_views["weak"], "u_w": u_views["weak"],
                      "u_w2": u_views["weak2"], "u_s": u_views["strong"]}

            info: dict = {}
            try:
                closure = _make_closure(cfg, yb, protos, info)
                grads = net_mod.backward(params, inputs, closure)
                params, velocity = sgd_step(params, grads, lr=lr, momentum=cfg.momentum,
                                            weight_decay=cfg.weight_decay, velocity=velocity)
            except ValueError as err:
                raise _diverged(err, runlog) from err

            record = {
                "step": step, "epoch": epoch, "lr": lr,
                "terms": info["terms"], "weights": info["weights"], "total": info["total"],
                "batch_labeled": int(len(li)), "batch_unlabeled": int(len(ui)),
                "gate": info["gate_stats"], "gate_detail": info["gate_detail"],
            }
            runlog.iterations.append(record)
            if info["proto_rows"].shape[0] > 0:
                proto_rows.append(info["proto_rows"])
                proto_pred.append(info["proto_pred"])

        try:
            protos = _refresh_prototypes(params, split, cfg, netspec, proto_rows, proto_pred)
        except ValueError as err:
            raise _diverged(err, runlog) from err
        runlog.final_prototypes = protos
        epoch_record = {
            "epoch": epoch,
            "prototypes": {
                "n_labeled": protos.n_labeled.tolist(),
                "n_unlabeled": protos.n_unlabeled.tolist(),
                "gamma": protos.gamma, "r_u": protos.r_u,
            },
        }
        if epoch == cfg.epochs - 1:
            runlog.final_report = evaluate(params, split, protos, score_rule=cfg.score_rule)
            epoch_record["eval"] = runlog.final_report.to_dict()
        runlog.epochs.append(epoch_record)

    return params, runlog


def _diverged(err: ValueError, runlog: RunLog) -> TrainingDiverged:
    """A non-finite value in a step or a refresh, with the last logged report."""
    last = runlog.iterations[-1] if runlog.iterations else None
    return TrainingDiverged(str(err), last_report=last)


def _refresh_prototypes(params, split, cfg, netspec, proto_rows, proto_pred) -> PrototypeSet:
    """Refresh from the rows the dual gate accepted, labeled by predicted class."""
    labeled = _clean_labeled_embeddings(params, split)
    unlabeled = (EmbeddingBatch(np.vstack(proto_rows), labels=np.concatenate(proto_pred))
                 if proto_rows else None)
    return refresh(labeled, unlabeled, gamma=cfg.gamma, r_u=cfg.r_u,
                   num_classes=netspec.num_classes)


# The objective's leaf terms, in the order they are logged.
LEAVES = ("x", "u", "ova", "em", "socr", "neg", "usna", "ia", "pa")


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


def freeze_decisions(uw: ForwardResult, us: ForwardResult, cfg: TrainConfig) -> Decisions:
    """Every frozen per-step choice, from the weak and strong unlabeled views."""
    gate_probs = softmax_rows(uw.cc_logits, cfg.gate_temperature)
    pl_probs = softmax_rows(uw.cc_logits)
    pseudo = np.argmax(pl_probs, axis=1)
    eta_neg = cfg.head.eta_neg
    return Decisions(
        gate=dual_gate(gate_probs, id_probs(uw.id_logits, uw.ood_logits), cfg.tau_id, cfg.eta_id),
        pseudo=pseudo,
        pl_accept=pl_probs[np.arange(pseudo.size), pseudo] > cfg.head.tau_pl,
        neg_w=negatives(uw.id_logits, uw.ood_logits, eta_neg),
        neg_s=negatives(us.id_logits, us.ood_logits, eta_neg),
    )


def loss_weights(cfg: TrainConfig) -> dict:
    """Every lambda of the head and alignment weights, in field order."""
    return dict(cfg.weights_and_slopes[0])


def objective(outputs, labels: np.ndarray, unit_protos: np.ndarray,
              decisions: Decisions, cfg: TrainConfig) -> tuple[dict, dict, dict]:
    """The training objective in closed form, as (terms, weights, grads).

    `terms` holds the nine leaf values, then the composites sna, cc, od and
    the total from `compose`. A leaf whose weight is zero is not evaluated
    and enters as 0.0. grads[view][head] is the total's gradient w.r.t. one
    view's head output, the form `net.backward` takes.
    """
    head, sna_w = cfg.head, cfg.sna
    xw, uw, uw2, us = outputs["x_w"], outputs["u_w"], outputs["u_w2"], outputs["u_s"]
    weights = loss_weights(cfg)
    slopes = cfg.weights_and_slopes[1]
    terms = dict.fromkeys(LEAVES, 0.0)
    grads: dict = {view: {} for view in outputs}

    def term(leaf, value_and_grads, targets):
        slope = slopes[leaf]
        terms[leaf] = value_and_grads[0]
        for (view, name), g in zip(targets, value_and_grads[1:]):
            by_head = grads[view]
            by_head[name] = by_head[name] + slope * g if name in by_head else slope * g

    term("x", ce(xw.cc_logits, labels), [("x_w", "cc_logits")])
    if head.lambda_u > 0:
        term("u", consistency(us.cc_logits, decisions.pseudo, decisions.pl_accept),
             [("u_s", "cc_logits")])
    term("ova", ova(xw.id_logits, xw.ood_logits, labels),
         [("x_w", "id_logits"), ("x_w", "ood_logits")])
    if head.lambda_em > 0:
        term("em", em(uw.id_logits, uw.ood_logits),
             [("u_w", "id_logits"), ("u_w", "ood_logits")])
    if head.lambda_socr > 0:
        term("socr", socr(uw.id_logits, uw2.id_logits),
             [("u_w", "id_logits"), ("u_w2", "id_logits")])
    if head.lambda_neg > 0:
        # Negatives are mined on both the weak and the strong view.
        weak = neg(uw.id_logits, uw.ood_logits, decisions.neg_w)
        strong = neg(us.id_logits, us.ood_logits, decisions.neg_s)
        term("neg", (weak[0] + strong[0], *weak[1:], *strong[1:]),
             [("u_w", "id_logits"), ("u_w", "ood_logits"),
              ("u_s", "id_logits"), ("u_s", "ood_logits")])
    t = sna_w.temperature
    if sna_w.lambda_usna > 0:
        term("usna", usna(uw.embeddings, unit_protos, decisions.gate.phi,
                          decisions.gate.pred_class, t), [("u_w", "embeddings")])
    if sna_w.lambda_ia > 0:
        term("ia", ia(xw.embeddings, labels, t), [("x_w", "embeddings")])
    if sna_w.lambda_pa > 0:
        term("pa", pa(xw.embeddings, unit_protos, labels, t), [("x_w", "embeddings")])
    terms.update(compose(terms, weights))
    return terms, weights, grads


def _make_closure(cfg: TrainConfig, labels: np.ndarray, protos: PrototypeSet, info: dict):
    unit_protos = protos.unit_directions()

    def closure(outputs):
        decisions = freeze_decisions(outputs["u_w"], outputs["u_s"], cfg)
        terms, weights, grads = objective(outputs, labels, unit_protos, decisions, cfg)
        total = terms.pop("total")
        gate = decisions.gate
        info["terms"] = terms
        info["weights"] = weights
        info["total"] = total
        info["gate_stats"] = {
            "accepted": gate.accepted,
            "negatives": int((decisions.neg_w.sum(axis=1) > 0).sum()),
            "pl_accepted": int(decisions.pl_accept.sum()),
        }
        info["gate_detail"] = {
            "phi": gate.phi.tolist(),
            "cc_conf": gate.cc_conf.tolist(),
            "od_conf": gate.od_conf.tolist(),
            "pred_class": gate.pred_class.tolist(),
            "tau_id": cfg.tau_id, "eta_id": cfg.eta_id,
        }
        selected = gate.phi == 1
        info["proto_rows"] = outputs["u_w"].embeddings[selected]
        info["proto_pred"] = gate.pred_class[selected]
        return total, grads

    return closure


def audit_gate_flow(runlog: RunLog) -> None:
    """Check every logged pull decision against the gate rule it claims."""
    for record in runlog.iterations:
        detail = record["gate_detail"]
        cc = np.asarray(detail["cc_conf"])
        od = np.asarray(detail["od_conf"])
        phi = np.asarray(detail["phi"])
        expected = ((cc > detail["tau_id"]) & (od > detail["eta_id"])).astype(np.int64)
        if not np.array_equal(phi, expected):
            raise AssertionError(f"gate mask inconsistent at step {record['step']}")


def audit_loss_composition(runlog: RunLog, tol: float = 1e-12) -> float:
    """Max deviation between logged composites and their recomposed values."""
    worst = 0.0
    for record in runlog.iterations:
        logged = {**record["terms"], "total": record["total"]}
        for name, value in compose(record["terms"], record["weights"]).items():
            worst = max(worst, abs(value - logged[name]))
        if worst > tol:
            raise AssertionError(f"loss composition off by {worst} at step {record['step']}")
    return worst
