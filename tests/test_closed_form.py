"""The closed-form training gradient against the tape, through the whole network.

Each case builds one training step's four views, freezes its decisions from
the numpy forward, and compares `trainer.objective` through `net.backward`
with `oracles.tape_objective` through reverse mode: every logged term and
the full parameter gradient must agree to 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from skipalign.autodiff import constant
from skipalign.heads import HeadWeights
from skipalign.net import NetSpec, forward, forward_tensors, init_params
from skipalign.oracles import objective_gradients, tape_objective
from skipalign.prototypes import PrototypeSet
from skipalign.sna import LOSS_COMBOS, SnaWeights
from skipalign.trainer import TrainConfig, freeze_decisions, objective

SPEC = NetSpec(input_dim=5, backbone_widths=(7,), feature_dim=6, proj_hidden=5,
               embed_dim=4, num_classes=3, seed=3)
# Thresholds at which every gate of `step` opens for some rows and not others.
CFG = TrainConfig(head=HeadWeights(lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                                   lambda_od=0.9, lambda_sna=0.4, tau_pl=0.73,
                                   eta_neg=0.45),
                  sna=SnaWeights(temperature=0.7), tau_id=0.93, eta_id=0.5)


def step(spec=SPEC, cfg=CFG, labels=(0, 0, 1, 2, 2, 1), unlabeled=8, seed=0):
    """One step's inputs, labels, prototypes and frozen decisions."""
    rng = np.random.default_rng(seed)
    params = init_params(spec)
    inputs = {"x_w": rng.standard_normal((len(labels), spec.input_dim)) * 2}
    for view in ("u_w", "u_w2", "u_s"):
        inputs[view] = rng.standard_normal((unlabeled, spec.input_dim)) * 2
    unit_protos = PrototypeSet.from_means(
        rng.standard_normal((spec.num_classes, spec.embed_dim))).unit_directions()
    outputs = {view: forward(params, x) for view, x in inputs.items()}
    decisions = freeze_decisions(outputs["u_w"], outputs["u_s"], cfg)
    return params, inputs, np.array(labels), unit_protos, outputs, decisions


def assert_matches_tape(spec=SPEC, cfg=CFG, **kwargs):
    params, inputs, labels, unit_protos, outputs, decisions = step(spec, cfg, **kwargs)
    terms = objective(outputs, labels, unit_protos, decisions, cfg)[0]
    tape_terms = tape_objective(outputs_on_tape(params, inputs), labels, unit_protos,
                                decisions, cfg)
    for name, value in terms.items():
        want = tape_terms[name].item()
        assert abs(value - want) <= 1e-12 * abs(want), name
    closed, tape = objective_gradients(params, inputs, labels, unit_protos, decisions, cfg)
    assert np.linalg.norm(tape) > 0
    assert np.linalg.norm(closed - tape) <= 1e-12 * np.linalg.norm(tape)
    return decisions


def outputs_on_tape(params, inputs):
    tensors = {name: constant(params.view(name)) for name in params.names()}
    return {view: forward_tensors(params.spec, tensors, x) for view, x in inputs.items()}


@pytest.mark.parametrize("combo", list(LOSS_COMBOS))
def test_each_loss_combo(combo):
    decisions = assert_matches_tape(
        cfg=replace(CFG, sna=replace(CFG.sna, **LOSS_COMBOS[combo])))
    for mask in (decisions.gate.phi, decisions.pl_accept, decisions.neg_w.any(axis=1)):
        assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("spec", [
    replace(SPEC, backbone_widths=()),
    replace(SPEC, backbone_widths=(7, 6)),
], ids=["linear-backbone", "two-hidden-layers"])
def test_network_variants(spec):
    assert_matches_tape(spec=spec)


def test_every_gate_closed():
    cfg = replace(CFG, tau_id=1.0, head=replace(CFG.head, tau_pl=1.0, eta_neg=1e-12))
    decisions = assert_matches_tape(cfg=cfg)
    assert decisions.gate.accepted == 0
    assert not decisions.pl_accept.any()
    assert not decisions.neg_w.any() and not decisions.neg_s.any()


def test_ia_without_positive_pairs():
    assert_matches_tape(labels=(0, 1, 2))


def test_unlabeled_batch_of_one():
    assert_matches_tape(unlabeled=1)


def test_zero_weights_skip_their_terms():
    head = HeadWeights(lambda_u=0.0, lambda_em=0.0, lambda_socr=0.0, lambda_neg=0.0)
    cfg = replace(CFG, head=head, sna=SnaWeights(0.0, 0.0, 0.0))
    params, inputs, labels, unit_protos, outputs, decisions = step(cfg=cfg)
    terms, _, grads = objective(outputs, labels, unit_protos, decisions, cfg)
    assert all(terms[name] == 0.0 for name in ("u", "em", "socr", "neg", "usna", "ia", "pa"))
    assert grads["u_w"] == grads["u_w2"] == grads["u_s"] == {}
    assert set(grads["x_w"]) == {"cc_logits", "id_logits", "ood_logits"}
    assert_matches_tape(cfg=cfg)
