"""The stacked training step against the per-view step it replaced, bit for bit.

`reference_step` keeps the earlier step: `net.backward` cut the stacked
forward into four per-view ForwardResults, every loss recomputed its softmax,
two-way softmax or unit rows from its view's raw outputs, and the objective
scattered a per-view, per-head gradient dict back into the batch. The step
that trains now computes each per-row quantity once on the stacked arrays
(`trainer.step_rows`) and writes full-batch head gradients; it must give the
same terms, the same frozen decisions and the same flat gradient, byte for
byte.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from skipalign.heads import HeadWeights, compose, one_hot
from skipalign.linalg import MIN_NORM, normalize
from skipalign.net import (ForwardResult, NetSpec, _check_finite, _forward_core, _relu,
                          _result, backward, init_params)
from skipalign.sna import LOSS_COMBOS, SnaWeights, dual_gate
from skipalign.trainer import (LEAVES, Decisions, TrainConfig, _make_closure, freeze_decisions,
                               objective, step_rows)

# --- The per-view step, as it was before the stacked pass. -------------------


def ref_two_way_log_probs(id_logits, ood_logits):
    shift = np.maximum(id_logits, ood_logits)
    log_z = np.log(np.exp(id_logits - shift) + np.exp(ood_logits - shift)) + shift
    return id_logits - log_z, ood_logits - log_z


def ref_softmax_rows(logits, temperature=1.0):
    x = logits / temperature
    x = x - x.max(axis=1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def ref_id_probs(id_logits, ood_logits):
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    e_ood = np.exp(ood_logits - shift)
    return e_id / (e_id + e_ood)


def ref_consistency(strong_logits, pseudo, accept):
    n, k = strong_logits.shape
    kept = np.asarray(accept, dtype=np.float64)[:, None]
    y = one_hot(pseudo, k) * kept
    shift = np.max(strong_logits, axis=1, keepdims=True)
    log_p = strong_logits - (np.log(np.exp(strong_logits - shift).sum(axis=1, keepdims=True))
                             + shift)
    value = -(log_p * y).sum(axis=1).sum() * (1.0 / n)
    return float(value), (np.exp(log_p) * kept - y) * (1.0 / n)


def ref_ce(logits, labels):
    return ref_consistency(logits, labels, np.ones(len(logits)))


def ref_ova(id_logits, ood_logits, labels):
    n, k = id_logits.shape
    y = one_hot(labels, k)
    log_p_id, log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)
    value = -(log_p_id * y + log_p_ood * (1.0 - y)).sum(axis=1).sum() * (1.0 / n)
    g_id = (np.exp(log_p_id) - y) * (1.0 / n)
    return float(value), g_id, -g_id


def ref_em(id_logits, ood_logits):
    n = id_logits.shape[0]
    log_p_id, log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)
    p_id, p_ood = np.exp(log_p_id), np.exp(log_p_ood)
    value = (-(p_id * log_p_id + p_ood * log_p_ood)).sum(axis=1).sum() * (1.0 / n)
    g_id = -(p_id * p_ood * (log_p_id - log_p_ood)) * (1.0 / n)
    return float(value), g_id, -g_id


def ref_socr(id_logits, id_logits2):
    n = id_logits.shape[0]
    diff = id_logits - id_logits2
    value = (diff * diff).sum(axis=1).sum() * (1.0 / n)
    g = diff * (2.0 / n)
    return float(value), g, -g


def ref_negatives(id_logits, ood_logits, eta_neg):
    log_p_id = ref_two_way_log_probs(id_logits, ood_logits)[0]
    return (log_p_id < np.log(eta_neg)).astype(np.float64)


def ref_neg(id_logits, ood_logits, selected):
    n = id_logits.shape[0]
    log_p_id, log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)
    counts = selected.sum(axis=1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    value = (-(log_p_ood * selected).sum(axis=1) * scale).sum() * (1.0 / n)
    g_id = selected * (scale * (1.0 / n))[:, None] * np.exp(log_p_id)
    return float(value), g_id, -g_id


def ref_unit_rows(z):
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if np.any(norms < MIN_NORM):
        raise ValueError("degenerate vector: cannot normalize a zero row")
    return z / norms, norms


def ref_tangential(grad_unit, unit_rows, norms):
    radial = (grad_unit * unit_rows).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit_rows) / norms


def ref_usna(z, unit_protos, phi, pred_class, temperature):
    n = z.shape[0]
    pull = one_hot(pred_class, unit_protos.shape[0]) * np.asarray(phi, dtype=np.float64)[:, None]
    zh, norms = ref_unit_rows(z)
    scaled = (zh @ unit_protos.T) * (1.0 / temperature)
    shift = np.max(scaled, axis=1, keepdims=True)
    e = np.exp(scaled - shift)
    total = e.sum(axis=1, keepdims=True)
    lse = (np.log(total) + shift).reshape(-1)
    value = (lse - (scaled * pull).sum(axis=1)).sum() * (1.0 / n)
    grad_unit = ((e / total - pull) @ unit_protos) * (1.0 / (temperature * n))
    return float(value), ref_tangential(grad_unit, zh, norms)


def ref_pa(z, unit_protos, labels, temperature):
    return ref_usna(z, unit_protos, np.ones(z.shape[0]), labels, temperature)


def ref_ia(z, labels, temperature):
    n = z.shape[0]
    y = np.asarray(labels, dtype=np.int64)
    zh, norms = ref_unit_rows(z)
    positives = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(positives, 0.0)
    counts = positives.sum(axis=1)
    contributing = counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(z)
    sims = (zh @ zh.T) * (1.0 / temperature)
    masked = sims + np.diag(np.full(n, -1e30))
    shift = np.max(masked, axis=1, keepdims=True)
    e = np.exp(masked - shift)
    total = e.sum(axis=1, keepdims=True)
    log_prob = sims - (np.log(total) + shift)
    weights = np.where(contributing, 1.0 / np.maximum(counts, 1.0), 0.0)
    value = (-(log_prob * positives).sum(axis=1) * weights).sum() * (1.0 / n_anchors)
    grad_sims = (contributing[:, None] * (e / total) - weights[:, None] * positives) \
        * (1.0 / n_anchors)
    grad_unit = ((grad_sims + grad_sims.T) @ zh) * (1.0 / temperature)
    return float(value), ref_tangential(grad_unit, zh, norms)


def ref_freeze_decisions(uw, us, cfg):
    gate_probs = ref_softmax_rows(uw.cc_logits, cfg.gate_temperature)
    pl_probs = ref_softmax_rows(uw.cc_logits)
    pseudo = np.argmax(pl_probs, axis=1)
    eta_neg = cfg.head.eta_neg
    return Decisions(
        gate=dual_gate(gate_probs, ref_id_probs(uw.id_logits, uw.ood_logits), cfg.tau_id,
                       cfg.eta_id),
        pseudo=pseudo,
        pl_accept=pl_probs[np.arange(pseudo.size), pseudo] > cfg.head.tau_pl,
        neg_w=ref_negatives(uw.id_logits, uw.ood_logits, eta_neg),
        neg_s=ref_negatives(us.id_logits, us.ood_logits, eta_neg),
    )


def ref_objective(outputs, labels, unit_protos, decisions, cfg):
    head, sna_w = cfg.head, cfg.sna
    xw, uw, uw2, us = outputs["x_w"], outputs["u_w"], outputs["u_w2"], outputs["u_s"]
    weights, slopes = cfg.weights_and_slopes
    terms = dict.fromkeys(LEAVES, 0.0)
    grads = {view: {} for view in outputs}

    def term(leaf, value_and_grads, targets):
        slope = slopes[leaf]
        terms[leaf] = value_and_grads[0]
        for (view, name), g in zip(targets, value_and_grads[1:]):
            by_head = grads[view]
            by_head[name] = by_head[name] + slope * g if name in by_head else slope * g

    term("x", ref_ce(xw.cc_logits, labels), [("x_w", "cc_logits")])
    if head.lambda_u > 0:
        term("u", ref_consistency(us.cc_logits, decisions.pseudo, decisions.pl_accept),
             [("u_s", "cc_logits")])
    term("ova", ref_ova(xw.id_logits, xw.ood_logits, labels),
         [("x_w", "id_logits"), ("x_w", "ood_logits")])
    if head.lambda_em > 0:
        term("em", ref_em(uw.id_logits, uw.ood_logits),
             [("u_w", "id_logits"), ("u_w", "ood_logits")])
    if head.lambda_socr > 0:
        term("socr", ref_socr(uw.id_logits, uw2.id_logits),
             [("u_w", "id_logits"), ("u_w2", "id_logits")])
    if head.lambda_neg > 0:
        weak = ref_neg(uw.id_logits, uw.ood_logits, decisions.neg_w)
        strong = ref_neg(us.id_logits, us.ood_logits, decisions.neg_s)
        term("neg", (weak[0] + strong[0], *weak[1:], *strong[1:]),
             [("u_w", "id_logits"), ("u_w", "ood_logits"),
              ("u_s", "id_logits"), ("u_s", "ood_logits")])
    t = sna_w.temperature
    if sna_w.lambda_usna > 0:
        term("usna", ref_usna(uw.embeddings, unit_protos, decisions.gate.phi,
                              decisions.gate.pred_class, t), [("u_w", "embeddings")])
    if sna_w.lambda_ia > 0:
        term("ia", ref_ia(xw.embeddings, labels, t), [("x_w", "embeddings")])
    if sna_w.lambda_pa > 0:
        term("pa", ref_pa(xw.embeddings, unit_protos, labels, t), [("x_w", "embeddings")])
    terms.update(compose(terms, weights))
    return terms, grads


def ref_rows(result, index):
    return ForwardResult(*(getattr(result, f.name)[index] for f in fields(result)))


def ref_backward(params, inputs, closure):
    spec = params.spec
    x = np.concatenate([inputs[view] for view in inputs])
    layer_inputs = {}
    f, z, cc, od = _forward_core(spec, params.view, x, relu=_relu, layer_inputs=layer_inputs)
    _check_finite(f, z, cc, od)
    stacked = _result(spec, f, z, cc, od)
    ends = np.cumsum([len(rows) for rows in inputs.values()])
    spans = {view: slice(end - len(inputs[view]), end) for view, end in zip(inputs, ends)}
    loss, head_grads = closure({view: ref_rows(stacked, rows) for view, rows in spans.items()})
    if not np.isfinite(loss):
        raise ValueError("non-finite loss")

    k = spec.num_classes
    g_z, g_cc, g_od = np.zeros_like(z), np.zeros_like(cc), np.zeros_like(od)
    targets = {"embeddings": g_z, "cc_logits": g_cc,
               "id_logits": g_od[:, :k], "ood_logits": g_od[:, k:]}
    for view, by_head in head_grads.items():
        for head, g in by_head.items():
            targets[head][spans[view]] = g

    grads = {}

    def through(name, g):
        grads[f"{name}.W"] = layer_inputs[name].T @ g
        grads[f"{name}.b"] = g.sum(axis=0)
        return g @ params.view(f"{name}.W").T

    g = through("cc", g_cc) + through("od", g_od)
    g += through("proj0", through("proj1", g_z) * (layer_inputs["proj1"] > 0))
    for i in reversed(range(len(spec.backbone_widths) + 1)):
        g = through(f"backbone{i}", g)
        if i > 0:
            g *= layer_inputs[f"backbone{i}"] > 0
    return np.concatenate([grads[name].ravel() for name in params.names()])


def reference_step(params, inputs, labels, unit_protos, cfg):
    """The per-view step: (terms, decisions, flat gradient)."""
    seen = {}

    def closure(outputs):
        seen["decisions"] = decisions = ref_freeze_decisions(outputs["u_w"], outputs["u_s"], cfg)
        terms, grads = ref_objective(outputs, labels, unit_protos, decisions, cfg)
        seen["terms"] = terms
        return terms["total"], grads

    flat = ref_backward(params, inputs, closure)
    return seen["terms"], seen["decisions"], flat


# --- The step that trains. ---------------------------------------------------


def stacked_step(params, x, labels, unit_protos, cfg):
    """The stacked step: (terms, decisions, flat gradient)."""
    seen = {}

    def closure(out):
        rows = step_rows(out, len(labels))
        seen["decisions"] = decisions = freeze_decisions(rows, cfg)
        terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
        seen["terms"] = terms
        return terms["total"], grads

    flat = backward(params, x, closure)
    return seen["terms"], seen["decisions"], flat


SPEC = NetSpec(input_dim=5, backbone_widths=(7,), feature_dim=6, proj_hidden=5,
               embed_dim=4, num_classes=3, seed=3)
# Thresholds at which the gate, the pseudo-labels and the negatives each
# fire on some rows and not on others.
CFG = TrainConfig(head=HeadWeights(lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                                   lambda_od=0.9, lambda_sna=0.4, tau_pl=0.73, eta_neg=0.45),
                  sna=SnaWeights(temperature=0.7), tau_id=0.93, eta_id=0.5)
HEAD_LAMBDAS = ("lambda_u", "lambda_em", "lambda_socr", "lambda_neg", "lambda_cc",
                "lambda_od", "lambda_sna")
SNA_LAMBDAS = ("lambda_usna", "lambda_ia", "lambda_pa")

CASES = {
    **{f"combo-{name}": {"cfg": replace(CFG, sna=replace(CFG.sna, **combo))}
       for name, combo in LOSS_COMBOS.items()},
    **{f"{name}=0": {"cfg": replace(CFG, head=replace(CFG.head, **{name: 0.0}))}
       for name in HEAD_LAMBDAS},
    **{f"{name}=0": {"cfg": replace(CFG, sna=replace(CFG.sna, **{name: 0.0}))}
       for name in SNA_LAMBDAS},
    "unlabeled-batch-of-one": {"unlabeled": 1},
    "labeled-batch-of-one": {"labels": (2,)},
    "one-class": {"spec": replace(SPEC, num_classes=1), "labels": (0, 0, 0)},
    "default-shapes": {"spec": NetSpec(), "labels": tuple(np.arange(16) % 4), "unlabeled": 32},
}


def case_inputs(spec=SPEC, cfg=CFG, labels=(0, 0, 1, 2, 2, 1), unlabeled=8, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(spec)
    inputs = {view: rng.standard_normal((rows, spec.input_dim)) * 2
              for view, rows in (("x_w", len(labels)), ("u_w", unlabeled),
                                 ("u_w2", unlabeled), ("u_s", unlabeled))}
    unit_protos = normalize(rng.standard_normal((spec.num_classes, spec.embed_dim)))[0]
    return params, inputs, np.array(labels), unit_protos, cfg


def assert_same_decisions(got: Decisions, want: Decisions):
    for name in ("phi", "cc_conf", "od_conf", "pred_class"):
        a, b = getattr(got.gate, name), getattr(want.gate, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("pseudo", "pl_accept", "neg_w", "neg_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", list(CASES))
def test_matches_reference_step(case):
    params, inputs, labels, unit_protos, cfg = case_inputs(**CASES[case])
    x = np.concatenate(list(inputs.values()))
    terms, decisions, flat = stacked_step(params, x, labels, unit_protos, cfg)
    want_terms, want_decisions, want_flat = reference_step(params, inputs, labels,
                                                           unit_protos, cfg)
    assert list(terms) == list(want_terms)
    assert all(terms[name] == want_terms[name] for name in terms), terms
    assert_same_decisions(decisions, want_decisions)
    assert flat.tobytes() == want_flat.tobytes()
    # The closure that trains gives the same gradient.
    record = {}
    trained = backward(params, x, _make_closure(cfg, labels, unit_protos, record, []))
    assert trained.tobytes() == want_flat.tobytes()
    assert record["total"] == want_terms["total"]


def test_thresholds_split_every_decision():
    params, inputs, labels, unit_protos, cfg = case_inputs()
    x = np.concatenate(list(inputs.values()))
    decisions = stacked_step(params, x, labels, unit_protos, cfg)[1]
    for mask in (decisions.gate.phi, decisions.pl_accept, decisions.neg_w.any(axis=1),
                 decisions.neg_s.any(axis=1)):
        assert 0 < mask.sum() < mask.size
