"""Training loop: batch assembly, multi-view forwards, the full objective,
momentum SGD under a cosine schedule, and per-epoch prototype refresh.

Per iteration: sample a labeled batch and gamma-times-larger unlabeled
batch, draw augmented views, forward them as one stacked batch, take each
per-row softmax once on it (`step_rows`), freeze the gate/pseudo-label
decisions from the weak unlabeled rows, take each head's loss terms in one
pass over the stacked rows into one full-batch gradient per head, backprop
the weighted total by hand through the network (`net.backward`), and step. Gate-accepted unlabeled
embeddings accumulate across the epoch and feed the prototype refresh at the
epoch boundary; the labeled side of the refresh is a clean (unaugmented)
pass over the full labeled set.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import net as net_mod
from .heads import (HeadWeights, classifier, compose, em, log_softmax, neg, negatives,
                    normalize, ova, socr, two_way)
from .net import ForwardResult, NetSpec, ParamState, forward, init_params, sgd_step
from .prototypes import EmbeddingBatch, PrototypeSet, refresh
from .sna import SnaWeights, dual_gate, ia, tangential, usna
from .synthdata import Split, augment_views

MOMENTUM, WEIGHT_DECAY = 0.9, 5e-4  # the SGD step's, the same in every run


class TrainingDiverged(RuntimeError):
    """Raised when the loss or an activation goes non-finite; carries the run's log."""

    def __init__(self, message: str, runlog: RunLog):
        super().__init__(message)
        self.runlog = runlog


@dataclass(frozen=True)
class TrainConfig:
    """Settable trainer values; the unlabeled batch, gamma * batch_size, is an integer."""
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
        if self.lr0 < 0:
            raise ValueError("lr0 must be non-negative")
        for name in ("tau_id", "eta_id", "r_u"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.gate_temperature <= 0:
            raise ValueError("gate_temperature must be positive")
        u = self.gamma * self.batch_size
        if not 1 <= u <= sys.maxsize or abs(u - round(u)) > 1e-9:
            raise ValueError(f"gamma * batch_size must be an integer in [1, {sys.maxsize}]")

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


def gate_detail_dtypes(num_classes: int) -> dict:
    """The gate detail a run logs per step, each `dual_gate` array but phi (the thresholds
    give it) in its stored dtype: a class index in the smallest unsigned type that fits."""
    return {"cc_conf": np.float64, "od_conf": np.float64,
            "pred_class": np.min_scalar_type(num_classes - 1)}


@dataclass
class RunLog:
    """Append-only record of a run's training, serializable at any point: one record
    per step (its leaves; `heads.compose` replays the composites and the total), one
    per epoch with its refresh's unlabeled counts, the gate detail (one (steps,
    unlabeled_batch) array per `gate_detail_dtypes` name, whose row i step i fills),
    and the last refresh's prototypes, which `cli.run_experiment` evaluates and writes.
    `write_jsonl` writes each record untagged: a step's has "step", an epoch's "epoch"."""

    iterations: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    final_prototypes: PrototypeSet | None = None
    gate_detail: dict[str, np.ndarray] = field(default_factory=dict)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.iterations + self.epochs:
                fh.write(json.dumps(record) + "\n")

    def write_gate_detail(self, path) -> None:
        """The gate detail's rows of the logged steps, one .npy array per name, as .npz."""
        n = len(self.iterations)
        np.savez(path, **{name: array[:n] for name, array in self.gate_detail.items()})


def lr_at(step: int, total_steps: int, lr0: float) -> float:
    """Plain half-cosine decay from lr0 to zero."""
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def _batches(pool_size: int, batch: int, rng: np.random.Generator):
    """Exact-size batches drawn from reshuffled permutations of a pool; a queue that runs
    short takes the whole permutations the next batch needs in one array, in draw order."""
    queue = np.empty(0, dtype=np.int64)
    while True:
        if (short := batch - len(queue)) > 0:
            refill = np.empty(-(-short // pool_size) * pool_size, dtype=np.int64)
            for row in refill.reshape(-1, pool_size):
                row[:] = rng.permutation(pool_size)
            queue = np.concatenate((queue, refill))
        yield queue[:batch]
        queue = queue[batch:]


def train(split: Split, netspec: NetSpec, cfg: TrainConfig) -> tuple[ParamState, RunLog]:
    """Run the full loop; deterministic given (split, netspec, cfg).

    A step's record starts as its step (its epoch and `lr_at` lr follow from it); its
    closure fills in the rest, and it is logged once the SGD step is taken. A ValueError
    in the epochs (a non-finite value or a zero row in a step or a refresh) ends the run
    as TrainingDiverged, carrying the RunLog. Training never reads the test split, the
    cluster table or a row's cluster code: they are evaluation's.
    """
    params = init_params(netspec)
    total_steps = cfg.epochs * cfg.iters_per_epoch
    runlog = RunLog(gate_detail={name: np.zeros((total_steps, cfg.unlabeled_batch), dtype)
                                 for name, dtype in
                                 gate_detail_dtypes(netspec.num_classes).items()})
    # Labeled means only: the gate is not trustworthy before training.
    protos = _refresh_prototypes(params, split, cfg, [])

    rng = np.random.default_rng(cfg.seed)
    labeled_batches = _batches(split.labeled_x.shape[0], cfg.batch_size, rng)
    unlabeled_batches = _batches(split.unlabeled_x.shape[0], cfg.unlabeled_batch, rng)
    velocity = np.zeros_like(params.flat)  # sgd_step updates it and params.flat in place

    try:
        for epoch in range(cfg.epochs):
            unit_protos = protos.unit_directions()
            accepted: list[EmbeddingBatch] = []
            for it in range(cfg.iters_per_epoch):
                step = epoch * cfg.iters_per_epoch + it
                lr = lr_at(step, total_steps, cfg.lr0)
                li, ui = next(labeled_batches), next(unlabeled_batches)
                x = augment_views(split.labeled_x[li], split.unlabeled_x[ui], rng, split.scenario)
                record = {"step": step}
                closure = _make_closure(cfg, split.labeled_y[li], unit_protos, record, accepted,
                                        runlog.gate_detail)
                grads = net_mod.backward(params, x, closure)
                sgd_step(params, grads, lr=lr, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                         velocity=velocity)
                runlog.iterations.append(record)

            protos = _refresh_prototypes(params, split, cfg, accepted)
            runlog.final_prototypes = protos
            runlog.epochs.append({"epoch": epoch,
                                  "prototypes": {"n_unlabeled": protos.n_unlabeled.tolist()}})
    except ValueError as err:
        raise TrainingDiverged(str(err), runlog) from err
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
    whole stack: `heads.log_softmax` (log_p, probs, and gate_probs, the u_w rows'
    at the gate's temperature) and `heads.two_way`."""

    out: ForwardResult
    x: slice
    u: slice
    u2: slice
    s: slice
    log_p: np.ndarray
    probs: np.ndarray
    gate_probs: np.ndarray
    log_p_id: np.ndarray
    log_p_ood: np.ndarray
    p_id: np.ndarray
    p_ood: np.ndarray


def step_rows(out: ForwardResult, n_labeled: int, gate_temperature: float) -> StepRows:
    """The rows of a forward of n_labeled x_w rows stacked on three equal unlabeled views."""
    n, b = len(out.cc_logits), n_labeled
    u = (n - b) // 3
    # The gate's tempered u_w rows join the classifier's rows in one row softmax.
    log_p, probs, _ = log_softmax(np.concatenate((out.cc_logits,
                                                  out.cc_logits[b:b + u] / gate_temperature)))
    return StepRows(out, slice(0, b), slice(b, b + u), slice(b + u, b + 2 * u),
                    slice(b + 2 * u, n), log_p[:n], probs[:n], probs[n:],
                    *two_way(out.id_logits, out.ood_logits))


@dataclass(frozen=True)
class Decisions:
    """One step's discrete choices, frozen from forward values.

    Gradients never flow through gates, pseudo-labels or negative masks.
    """

    phi: np.ndarray         # where `dual_gate` pulls a u_w row; also picks refresh rows
    cc_conf: np.ndarray     # the classifier confidence the gate read per u_w row
    od_conf: np.ndarray     # the detector's ID probability it read at pred_class
    pred_class: np.ndarray  # the argmax class per u_w row
    pl_accept: np.ndarray   # where the hard pseudo-label, pred_class, clears tau_pl
    negative: np.ndarray    # pseudo-negative masks on the u_w, u_w2 and u_s rows; none on u_w2


def freeze_decisions(rows: StepRows, cfg: TrainConfig) -> Decisions:
    """Every frozen per-step choice, from the weak and strong unlabeled rows."""
    u, gate_probs = rows.u, rows.gate_probs
    if not np.isfinite(gate_probs).all():
        raise ValueError("non-finite gate probabilities: gate_temperature overflows the logits")
    phi, cc_conf, od_conf, pred_class = dual_gate(gate_probs, rows.p_id[u], cfg.tau_id,
                                                  cfg.eta_id)
    m = len(pred_class)
    negative = negatives(rows.log_p_id[u.start:], cfg.head.log_eta_neg)
    negative[m:2 * m] = 0.0
    pl_accept = rows.probs[u][np.arange(m), pred_class] > cfg.head.tau_pl
    return Decisions(phi, cc_conf, od_conf, pred_class, pl_accept, negative)


def objective(rows: StepRows, labels: np.ndarray, unit_protos: np.ndarray,
              decisions: Decisions, cfg: TrainConfig) -> tuple[dict, dict]:
    """The training objective in closed form, as (terms, grads).

    `terms` holds the nine leaf values and the total from `compose`, which gives
    the composites back from the leaves. A leaf whose weight is zero is not evaluated
    and enters as 0.0. grads maps each head output to the total's gradient
    over the whole stack, the form `net.backward` takes. Each head's terms take
    one pass over its rows, each row weighted by its term's slope in the total
    over its view's size; the alignment terms' gradients are summed on the
    sphere and taken to the embeddings once.
    """
    head, sna_w = cfg.head, cfg.sna
    weights, slopes = cfg.weights_and_slopes
    x, u, u2, s = rows.x, rows.u, rows.u2, rows.s
    b, m, w = x.stop, s.stop - s.start, u.start
    pred, accept = decisions.pred_class, decisions.pl_accept
    terms = dict.fromkeys(LEAVES, 0.0)
    # One target row per stacked row, the one-hot of: the label on x_w, the gate's
    # prototype on u_w (zero where the gate is shut), the accepted pseudo-label on
    # u_s (zero where rejected); no term reads u_w2's.
    classes = np.concatenate((labels, pred, pred, pred))
    target = np.zeros(rows.log_p.shape)
    target[np.arange(len(classes)), classes] = np.concatenate((np.ones(b), decisions.phi,
                                                               accept, accept))
    scale = np.zeros(len(classes))
    scale[x], scale[s] = slopes["x"] / b, accept * (slopes["u"] / m)
    losses, g_cc = classifier(rows.log_p, rows.probs, target, scale)
    terms["x"] = np.add.reduce(losses[x]) * (1.0 / b)
    if head.lambda_u > 0:
        terms["u"] = np.add.reduce(losses[s]) * (1.0 / m)

    log_p_id, log_p_ood, p_id, p_ood = rows.log_p_id, rows.log_p_ood, rows.p_id, rows.p_ood
    g_id = np.zeros(log_p_id.shape)
    terms["ova"], g_id[x] = ova(log_p_id[x], log_p_ood[x], p_id[x], target[x], b,
                                slopes["ova"])
    if head.lambda_em > 0:
        terms["em"], g_id[u] = em(log_p_id[u], log_p_ood[u], p_id[u], p_ood[u], m, slopes["em"])
    if head.lambda_neg > 0:
        # The weak and the strong view in one pass; u_w2 has no negatives.
        terms["neg"], g = neg(log_p_ood[w:], p_id[w:], decisions.negative, m, slopes["neg"])
        g_id[w:] += g
    g_ood = -g_id
    if head.lambda_socr > 0:
        terms["socr"], g = socr(rows.out.id_logits[u], rows.out.id_logits[u2], m,
                                slopes["socr"])
        g_id[u] += g
        g_id[u2] = -g

    # x_w and u_w are adjacent rows: normalize those an enabled term reads in one pass.
    t, g_z = sna_w.temperature, np.zeros(rows.out.embeddings.shape)
    lo = 0 if sna_w.lambda_ia > 0 or sna_w.lambda_pa > 0 else b
    hi = u.stop if sna_w.lambda_usna > 0 else b
    if lo < hi:
        unit, norms = normalize(rows.out.embeddings[lo:hi])
        if sna_w.lambda_usna > 0 or sna_w.lambda_pa > 0:
            # pa is usna with the gate open: one pass over the x_w and u_w rows.
            row_scale = np.full(hi - lo, slopes["usna"] / m)
            row_scale[:b - lo] = slopes["pa"] / b
            losses, g_unit = usna(unit, unit_protos, target[lo:hi], row_scale, t)
            if sna_w.lambda_pa > 0:
                terms["pa"] = np.add.reduce(losses[:b]) * (1.0 / b)
            if sna_w.lambda_usna > 0:
                terms["usna"] = np.add.reduce(losses[b - lo:]) * (1.0 / m)
        else:
            g_unit = np.zeros(unit.shape)
        if sna_w.lambda_ia > 0:
            terms["ia"], g = ia(unit[:b], target[x], t, slopes["ia"])
            g_unit[:b] += g
        g_z[lo:hi] = tangential(g_unit, unit, norms)
    terms["total"] = compose(terms, weights)["total"]
    return terms, {"embeddings": g_z, "cc_logits": g_cc, "id_logits": g_id, "ood_logits": g_ood}


def _make_closure(cfg: TrainConfig, labels: np.ndarray, unit_protos: np.ndarray, record: dict,
                  accepted: list[EmbeddingBatch], gate_detail: dict[str, np.ndarray]):
    """The step's objective for `net.backward`. It fills in the rest of the step's record
    (not the total it returns: the leaves replay it), writes the gate's arrays into row
    record["step"] of gate_detail's, and appends the weak unlabeled rows the gate
    accepted, by predicted class, to accepted."""
    def closure(out):
        rows = step_rows(out, len(labels), cfg.gate_temperature)
        decisions = freeze_decisions(rows, cfg)
        terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
        total = terms.pop("total")
        phi, m = decisions.phi, len(decisions.phi)
        record.update({
            "terms": terms, "batch_unlabeled": m,
            "gate": {"accepted": int(np.count_nonzero(phi)),
                     "negatives": int(np.count_nonzero(decisions.negative[:m].any(axis=1))),
                     "pl_accepted": int(np.count_nonzero(decisions.pl_accept))},
        })
        step = record["step"]
        for name, array in gate_detail.items():
            array[step] = getattr(decisions, name)
        accepted.append(EmbeddingBatch(out.embeddings[rows.u][phi], decisions.pred_class[phi]))
        return total, grads

    return closure
