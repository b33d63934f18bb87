"""The closed-form gradients against the autodiff tape: the second, exact oracle.

The tape (`autodiff`, `tensor_losses`, `net.forward_tensors`) builds the
training objective operation by operation and differentiates it in reverse
mode, so it agrees with the closed form to rounding, where central
differences (`fd_oracle`) agree only to their truncation error. A helper of the
tests, not a test module: pytest does not collect it.
"""

import numpy as np

from skipalign import tensor_losses as tl
from skipalign.autodiff import constant, parameter
from skipalign.heads import compose
from skipalign.net import ParamState, forward_tensors
from skipalign.trainer import Decisions, TrainConfig
from fd_oracle import _rel, ce_feature_cases, objective_gradient, training_gradient_cases


def tape_objective(outputs, labels: np.ndarray, unit_protos: np.ndarray,
                   decisions: Decisions, cfg: TrainConfig) -> dict:
    """`trainer.objective` built on the tape from the loss twins.

    Returns its terms, nine leaf graphs and the total, and sna, cc and od too. A
    leaf whose weight is zero is not built and enters as the constant 0.0.
    """
    head, sna_w = cfg.head, cfg.sna
    xw, uw, uw2, us = outputs["x_w"], outputs["u_w"], outputs["u_w2"], outputs["u_s"]
    neg_w, _, neg_s = np.split(decisions.negative, 3)
    zero = tl.constant(0.0)
    terms = {
        "x": tl.ce_graph(xw.cc_logits, labels),
        "u": (tl.consistency_graph(us.cc_logits, decisions.pred_class, decisions.pl_accept)
              if head.lambda_u > 0 else zero),
        "ova": tl.ova_graph(xw.id_logits, xw.ood_logits, labels),
        "em": tl.em_graph(uw.id_logits, uw.ood_logits) if head.lambda_em > 0 else zero,
        "socr": tl.socr_graph(uw.id_logits, uw2.id_logits) if head.lambda_socr > 0 else zero,
        "neg": (tl.neg_graph(uw.id_logits, uw.ood_logits, neg_w)
                + tl.neg_graph(us.id_logits, us.ood_logits, neg_s)
                if head.lambda_neg > 0 else zero),
        "usna": (tl.usna_graph(uw.embeddings, unit_protos, decisions.phi,
                               decisions.pred_class, sna_w.temperature)
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
    closed = objective_gradient(params, np.concatenate(list(inputs.values())), labels,
                                unit_protos, decisions, cfg)
    tensors = {name: parameter(view) for name, view in params.views.items()}
    outputs = {view: forward_tensors(params.spec, tensors, x) for view, x in inputs.items()}
    tape_objective(outputs, labels, unit_protos, decisions, cfg)["total"].backward()
    tape = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                           for t in tensors.values()])
    return closed, tape


def full_model_tape_check(seed: int = 0) -> float:
    """Worst relative error of the training gradient against the tape, over
    `fd_oracle.training_gradient_cases`."""
    return max(_rel(*objective_gradients(*case)) for case in training_gradient_cases(seed))


def ce_feature_tape_check(n_configs: int = 20, seed: int = 0) -> float:
    """Max abs deviation of the closed-form CE feature gradient under a linear head,
    over `fd_oracle.ce_feature_cases`, from the tape gradient."""
    worst = 0.0
    for weights, f, y, closed_form, _ in ce_feature_cases(n_configs, seed):
        ft = parameter(f[None, :])
        tl.ce_graph(ft @ constant(weights), y).backward()
        worst = max(worst, float(np.max(np.abs(closed_form - ft.grad[0]))))
    return worst
