"""Gradient oracles: the closed-form gradients against two independent derivations.

The autodiff tape (`autodiff`, `tensor_losses`, `net.forward_tensors`) builds
the same objective operation by operation and differentiates it in reverse
mode; central differences (`finite_diff_grad`, here and in the tests) probe
the production value directly. Three checks, mirroring what the test suite
enforces:
  1. the angular gradient of the unlabeled alignment loss,
  2. the gradient of the training objective through the network, at each
     loss_combo setting of the alignment weights, against both oracles,
  3. the closed-form feature gradient of cross-entropy under a linear head.
Check 2 runs the step that trains, on a stacked batch; its discrete decisions
are frozen at the base point, so the finite differences probe a smooth function.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from . import tensor_losses as tl
from .autodiff import constant, parameter
from .heads import HeadWeights, classifier, compose, log_softmax, normalize, one_hot
from .net import NetSpec, ParamState, forward, forward_tensors, init_params, param_count
from .net import backward as net_backward
from .sna import LOSS_COMBOS, SnaWeights, tangential, usna
from .trainer import Decisions, TrainConfig, freeze_decisions, objective, step_rows


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field at a finite 1-D point x, one
    coordinate at a time.

    The oracle against which every analytic gradient in this package is
    checked; it must stay independent of those implementations.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        fp = float(f(x + e))
        fm = float(f(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function evaluation at coordinate {i}")
        g[i] = (fp - fm) / (2.0 * step)
    return g


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def tape_objective(outputs, labels: np.ndarray, unit_protos: np.ndarray,
                   decisions: Decisions, cfg: TrainConfig) -> dict:
    """`trainer.objective` built on the tape from the loss twins.

    Returns the same terms: nine leaf graphs, then sna, cc, od and total. A
    leaf whose weight is zero is not built and enters as the constant 0.0.
    """
    head, sna_w = cfg.head, cfg.sna
    xw, uw, uw2, us = outputs["x_w"], outputs["u_w"], outputs["u_w2"], outputs["u_s"]
    neg_w, _, neg_s = np.split(decisions.negative, 3)
    zero = tl.constant(0.0)
    terms = {
        "x": tl.ce_graph(xw.cc_logits, labels),
        "u": (tl.consistency_graph(us.cc_logits, decisions.gate.pred_class, decisions.pl_accept)
              if head.lambda_u > 0 else zero),
        "ova": tl.ova_graph(xw.id_logits, xw.ood_logits, labels),
        "em": tl.em_graph(uw.id_logits, uw.ood_logits) if head.lambda_em > 0 else zero,
        "socr": tl.socr_graph(uw.id_logits, uw2.id_logits) if head.lambda_socr > 0 else zero,
        "neg": (tl.neg_graph(uw.id_logits, uw.ood_logits, neg_w)
                + tl.neg_graph(us.id_logits, us.ood_logits, neg_s)
                if head.lambda_neg > 0 else zero),
        "usna": (tl.usna_graph(uw.embeddings, unit_protos, decisions.gate.phi,
                               decisions.gate.pred_class, sna_w.temperature)
                 if sna_w.lambda_usna > 0 else zero),
        "ia": (tl.ia_graph(xw.embeddings, labels, sna_w.temperature)
               if sna_w.lambda_ia > 0 else zero),
        "pa": (tl.pa_graph(xw.embeddings, unit_protos, labels, sna_w.temperature)
               if sna_w.lambda_pa > 0 else zero),
    }
    terms.update(compose(terms, cfg.weights_and_slopes[0]))
    return terms


def objective_gradients(params: ParamState, inputs: dict, labels: np.ndarray,
                        unit_protos: np.ndarray, decisions: Decisions,
                        cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The objective's parameter gradient in closed form, on the views of `inputs`
    (x_w, u_w, u_w2, u_s) stacked as `train` stacks them, and on the tape view by
    view, under the same frozen decisions: (production, oracle)."""
    def closure(out):
        rows = step_rows(out, len(labels), cfg.gate_temperature)
        terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
        return terms["total"], grads

    closed = net_backward(params, np.concatenate(list(inputs.values())), closure)
    tensors = {name: parameter(params.view(name)) for name in params.names()}
    outputs = {view: forward_tensors(params.spec, tensors, x) for view, x in inputs.items()}
    tape_objective(outputs, labels, unit_protos, decisions, cfg)["total"].backward()
    tape = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                           for t in tensors.values()])
    return closed, tape


def usna_gradient_check(n_configs: int = 100, seed: int = 0, step: float = 1e-6) -> float:
    """Max relative error of the usna gradient against central differences of
    its value, over random batches.

    Batch sizes, dimensions, prototype counts, temperatures, and the gate
    all vary.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        rows = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(2, 9))
        temperature = float(rng.uniform(0.1, 2.0))
        unit_protos = normalize(rng.standard_normal((k, dim)))[0]
        z = rng.standard_normal((rows, dim)) * rng.uniform(0.5, 3.0, size=(rows, 1))
        phi = rng.integers(0, 2, size=rows)
        pull = one_hot(rng.integers(0, k, size=rows), k) * phi[:, None]
        mean = np.full(rows, 1.0 / rows)
        unit, norms = normalize(z)
        analytic = tangential(usna(unit, unit_protos, pull, mean, temperature)[1], unit, norms)
        numeric = finite_diff_grad(
            lambda v: usna(normalize(v.reshape(z.shape))[0], unit_protos, pull, mean,
                           temperature)[0].mean(),
            z.ravel(), step)
        worst = max(worst, _rel(analytic.ravel(), numeric))
    return worst


def full_model_gradient_check(seed: int = 0, step: float = 1e-5) -> tuple[float, float, int]:
    """The training gradient against central differences of the training
    value, and against the tape.

    The objective is the trainer's own, with its decisions frozen once at the
    base point; it is checked at each loss_combo setting of the alignment
    weights, so the zero-weight skips are covered. Returns (worst relative
    error vs central differences, worst relative error vs the tape,
    parameter count); the network stays under 500 parameters.
    """
    spec = NetSpec(input_dim=3, backbone_widths=(4,), feature_dim=3, proj_hidden=3,
                   embed_dim=2, num_classes=2, seed=seed)
    params = init_params(spec)
    rng = np.random.default_rng(seed + 1)
    labels = np.array([0, 0, 1, 1])
    inputs = {view: rng.standard_normal((rows, spec.input_dim))
              for view, rows in (("x_w", 4), ("u_w", 6), ("u_w2", 6), ("u_s", 6))}
    x = np.concatenate(list(inputs.values()))
    unit_protos = normalize(rng.standard_normal((spec.num_classes, spec.embed_dim)))[0]
    head = HeadWeights(lambda_u=1.0, lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                       lambda_cc=1.0, lambda_od=0.9, lambda_sna=0.4,
                       tau_pl=0.4, eta_neg=0.5)
    sna_w = SnaWeights(lambda_usna=1.0, lambda_ia=0.8, lambda_pa=0.6, temperature=0.7)
    base_cfg = TrainConfig(head=head, sna=sna_w, tau_id=0.4, eta_id=0.3,
                           gate_temperature=1.0)

    def rows_at(flat: np.ndarray):
        return step_rows(forward(ParamState(spec=spec, flat=flat), x), len(labels),
                         base_cfg.gate_temperature)

    decisions = freeze_decisions(rows_at(params.flat), base_cfg)
    worst_fd = worst_tape = 0.0
    for combo in LOSS_COMBOS.values():
        cfg = replace(base_cfg, sna=replace(sna_w, **combo))
        closed, tape = objective_gradients(params, inputs, labels, unit_protos, decisions, cfg)
        numeric = finite_diff_grad(
            lambda flat: objective(rows_at(flat), labels, unit_protos, decisions,
                                   cfg)[0]["total"],
            params.flat, step)
        worst_fd = max(worst_fd, _rel(closed, numeric))
        worst_tape = max(worst_tape, _rel(closed, tape))
    return worst_fd, worst_tape, param_count(spec)


def ce_feature_gradient_check(n_configs: int = 20, seed: int = 0) -> tuple[float, float]:
    """Closed-form CE feature gradient under a linear head: the logit gradient
    `heads.classifier` returns on the head's `log_softmax`, times the head's weights.

    Returns (max abs deviation from the tape gradient, max relative error
    against central differences of the `heads.classifier` value).
    """
    rng = np.random.default_rng(seed)
    worst_tape = 0.0
    worst_fd = 0.0
    for _ in range(n_configs):
        d_f = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        weights = rng.standard_normal((d_f, k))
        f = rng.standard_normal(d_f)
        y = np.array([int(rng.integers(0, k))])

        def ce(v):  # one row's cross-entropy and its logit gradient
            return classifier(*log_softmax((v @ weights)[None, :])[:2], one_hot(y, k), np.ones(1))

        closed_form = (ce(f)[1] @ weights.T)[0]

        ft = parameter(f[None, :])
        tl.ce_graph(ft @ constant(weights), y).backward()
        worst_tape = max(worst_tape, float(np.max(np.abs(closed_form - ft.grad[0]))))

        numeric = finite_diff_grad(lambda v: ce(v)[0][0], f)
        worst_fd = max(worst_fd, _rel(closed_form, numeric))
    return worst_tape, worst_fd


def run_gradcheck_suite(verbose: bool = False) -> list[tuple[str, bool, str]]:
    results = []

    rel = usna_gradient_check(n_configs=100)
    results.append(("usna gradient vs central differences (100 batches)",
                    rel <= 1e-6, f"max rel err {rel:.3e} (tol 1e-6)"))

    fd_rel, tape_rel, n_params = full_model_gradient_check()
    results.append((f"training gradient vs central differences and tape ({n_params} params, "
                    f"{len(LOSS_COMBOS)} loss combos)",
                    fd_rel <= 1e-5 and tape_rel <= 1e-12,
                    f"fd rel {fd_rel:.3e} (tol 1e-5), tape rel {tape_rel:.3e} (tol 1e-12)"))

    tape_dev, fd_rel = ce_feature_gradient_check()
    results.append(("cross-entropy feature gradient identity (linear head)",
                    tape_dev <= 1e-10 and fd_rel <= 1e-6,
                    f"tape dev {tape_dev:.3e} (tol 1e-10), fd rel {fd_rel:.3e} (tol 1e-6)"))

    if verbose:
        for name, passed, detail in results:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return results
