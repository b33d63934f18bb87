"""The closed-form training gradient against the tape, through the whole network.

Each case builds one training step's four views, freezes its decisions from
their stacked numpy forward, and compares `trainer.objective` through
`net.backward` on the stacked batch, as training runs them, with
`tape_oracle.tape_objective` through reverse mode view by view: every logged term
and the full parameter gradient must agree to 1e-12 relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from skipalign.autodiff import constant
from skipalign.heads import HeadWeights, normalize
from skipalign.net import NetSpec, forward, forward_tensors, init_params
from skipalign.sna import LOSS_COMBOS, SnaWeights
from skipalign.trainer import TrainConfig, freeze_decisions, objective, step_rows
from fd_oracle import objective_fd_error
from tape_oracle import objective_gradients, tape_objective

SPEC = NetSpec(input_dim=5, backbone_widths=(7,), feature_dim=6, proj_hidden=5,
               embed_dim=4, num_classes=3, seed=3)
# Thresholds at which every gate of `step` opens for some rows and not others.
CFG = TrainConfig(head=HeadWeights(lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                                   lambda_od=0.9, lambda_sna=0.4, tau_pl=0.73,
                                   eta_neg=0.45),
                  sna=SnaWeights(temperature=0.7), tau_id=0.93, eta_id=0.5)


def step(spec=SPEC, cfg=CFG, labels=(0, 0, 1, 2, 2, 1), unlabeled=8, seed=0):
    """One step's inputs by view, labels, prototypes, stacked rows and frozen decisions."""
    rng = np.random.default_rng(seed)
    params = init_params(spec)
    inputs = {"x_w": rng.standard_normal((len(labels), spec.input_dim)) * 2}
    for view in ("u_w", "u_w2", "u_s"):
        inputs[view] = rng.standard_normal((unlabeled, spec.input_dim)) * 2
    unit_protos = normalize(rng.standard_normal((spec.num_classes, spec.embed_dim)))[0]
    rows = step_rows(forward(params, np.concatenate(list(inputs.values()))), len(labels),
                     cfg.gate_temperature)
    decisions = freeze_decisions(rows, cfg)
    return params, inputs, np.array(labels), unit_protos, rows, decisions


def assert_matches_tape(spec=SPEC, cfg=CFG, **kwargs):
    params, inputs, labels, unit_protos, rows, decisions = step(spec, cfg, **kwargs)
    terms = objective(rows, labels, unit_protos, decisions, cfg)[0]
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
    tensors = {name: constant(view) for name, view in params.views.items()}
    return {view: forward_tensors(params.spec, tensors, x) for view, x in inputs.items()}


@pytest.mark.parametrize("combo", list(LOSS_COMBOS))
def test_each_loss_combo(combo):
    decisions = assert_matches_tape(
        cfg=replace(CFG, sna=replace(CFG.sna, **LOSS_COMBOS[combo])))
    for mask in (decisions.phi, decisions.pl_accept,
                 np.split(decisions.negative, 3)[0].any(axis=1)):
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
    assert not decisions.phi.any()
    assert not decisions.pl_accept.any()
    assert not decisions.negative.any()


def test_ia_without_positive_pairs():
    assert_matches_tape(labels=(0, 1, 2))


def test_ia_alone():
    # With usna and pa off, ia's unit-row gradient starts from zeros rather than from
    # their shared pass: against the tape, and against central differences too.
    cfg = replace(CFG, sna=replace(CFG.sna, lambda_usna=0.0, lambda_pa=0.0))
    assert cfg.sna.lambda_ia > 0
    assert_matches_tape(cfg=cfg)
    params, inputs, labels, unit_protos, _, decisions = step(cfg=cfg)
    assert objective_fd_error(params, inputs, labels, unit_protos, decisions, cfg) <= 1e-5


def test_unlabeled_batch_of_one():
    assert_matches_tape(unlabeled=1)


def test_zero_weights_skip_their_terms():
    head = HeadWeights(lambda_u=0.0, lambda_em=0.0, lambda_socr=0.0, lambda_neg=0.0)
    cfg = replace(CFG, head=head, sna=SnaWeights(0.0, 0.0, 0.0))
    params, inputs, labels, unit_protos, rows, decisions = step(cfg=cfg)
    terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
    assert all(terms[name] == 0.0 for name in ("u", "em", "socr", "neg", "usna", "ia", "pa"))
    # Only the labeled rows of the classifier and detector heads carry a gradient.
    assert not grads["embeddings"].any()
    for head in ("cc_logits", "id_logits", "ood_logits"):
        assert grads[head][rows.x].all() and not grads[head][rows.u.start:].any()
    assert_matches_tape(cfg=cfg)
