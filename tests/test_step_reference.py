"""The stacked training step against a per-view step, bit for bit.

`reference_step` keeps the per-view shape of the earlier step: `net.backward`
cut the stacked forward into four per-view ForwardResults, every loss recomputed
its softmax, two-way softmax or unit rows from its view's raw outputs, and the
objective scattered a per-view, per-head gradient dict back into the batch. It
adopts each deliberate formula change of the one-pass step:

- one classifier kernel with a target row and a weight per row: cross-entropy
  on x_w, consistency on u_s, weight 0 on u_w and u_w2;
- each loss's slope and 1/n fold into one scale per row on its gradient, and
  each row's log-softmax keeps its log-sum-exp;
- the two-way terms give the OOD logits the negated ID gradient, taken before
  socr adds to the ID logits;
- neg runs once over the u_w, u_w2 and u_s rows (u_w2 without negatives), so
  its value sums their stacked products;
- prototype alignment is usna with the gate open: one cosine product and one
  prototype softmax over the stacked x_w and u_w unit rows, the repulsion's
  log-sum-exp taken from that softmax;
- the alignment gradients are summed on the sphere and projected once;
- one ID probability, e_id / (e_id + e_ood), for the losses, the gate and the
  negatives' gradient, and one argmax on the weak rows: the gate's predicted
  class is the pseudo-label;
- the terms are the nine leaves and the total: `compose` gives the composites
  back from the leaves.

The step that trains computes each per-row quantity once on the stacked arrays
(`trainer.step_rows`) and writes full-batch head gradients; it must give the
same terms, the same frozen decisions and the same flat gradient, byte for
byte.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from skipalign.heads import HeadWeights, MIN_NORM, compose, normalize, one_hot
from skipalign.net import (ForwardResult, NetSpec, _check_finite, _forward_core, _relu,
                          _result, backward, init_params)
from skipalign.sna import LOSS_COMBOS, SnaWeights, dual_gate
from skipalign.trainer import (LEAVES, Decisions, TrainConfig, _make_closure, freeze_decisions,
                               gate_detail_dtypes, objective, step_rows)

# --- The per-view step. -------------------------------------------------------


def ref_log_softmax(logits):
    shift = np.max(logits, axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total) + shift
    return logits - lse, e / total, lse


def ref_two_way_log_probs(id_logits, ood_logits):
    shift = np.maximum(id_logits, ood_logits)
    log_z = np.log(np.exp(id_logits - shift) + np.exp(ood_logits - shift)) + shift
    return id_logits - log_z, ood_logits - log_z


def ref_softmax_rows(logits, temperature=1.0):
    x = logits / temperature
    x = x - x.max(axis=1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def ref_two_way_probs(id_logits, ood_logits):
    """The per-class (ID, OOD) probabilities: e_id and e_ood over their sum."""
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    e_ood = np.exp(ood_logits - shift)
    return e_id / (e_id + e_ood), e_ood / (e_id + e_ood)


def ref_classifier(logits, target, scale):
    """Per-row losses and the scaled logit gradient of one view's rows."""
    log_p, probs, _ = ref_log_softmax(logits)
    return -(log_p * target).sum(axis=1), (probs - target) * scale[:, None]


def ref_ova(id_logits, ood_logits, y, scale):
    log_p_id, log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)
    value = -(log_p_ood + y * (log_p_id - log_p_ood)).sum()
    return float(value), (ref_two_way_probs(id_logits, ood_logits)[0] - y) * scale


def ref_em(id_logits, ood_logits, scale):
    log_p_id, log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)
    p_id, p_ood = ref_two_way_probs(id_logits, ood_logits)
    value = -(p_id * log_p_id + p_ood * log_p_ood).sum()
    return float(value), (p_ood * (log_p_ood - log_p_id)) * (p_id * scale)


def ref_socr(id_logits, id_logits2, scale):
    diff = id_logits - id_logits2
    return float((diff * diff).sum()), diff * (2.0 * scale)


def ref_negatives(id_logits, ood_logits, eta_neg):
    log_p_id = ref_two_way_log_probs(id_logits, ood_logits)[0]
    return (log_p_id < np.log(eta_neg)).astype(np.float64)


def ref_neg_rows(id_logits, ood_logits, selected, scale):
    """One view's weighted -log(OOD probability) products and its ID-logit gradient."""
    log_p_ood = ref_two_way_log_probs(id_logits, ood_logits)[1]
    counts = selected.sum(axis=1, keepdims=True)
    w = selected * (1.0 / np.maximum(counts, 1.0))
    return log_p_ood * w, w * (ref_two_way_probs(id_logits, ood_logits)[0] * scale)


def ref_unit_rows(z):
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    if np.any(norms < MIN_NORM):
        raise ValueError("degenerate vector: cannot normalize a zero row")
    return z / norms, norms


def ref_tangential(grad_unit, unit_rows, norms):
    radial = (grad_unit * unit_rows).sum(axis=1, keepdims=True)
    return (grad_unit - radial * unit_rows) / norms


def ref_usna_rows(zh, unit_protos, pull, scale, temperature):
    """Per-row losses and the gradient w.r.t. the unit rows, on stacked unit rows."""
    scaled = (zh @ unit_protos.T) * (1.0 / temperature)
    _, probs, lse = ref_log_softmax(scaled)
    losses = lse[:, 0] - (scaled * pull).sum(axis=1)
    return losses, ((probs - pull) * (scale * (1.0 / temperature))[:, None]) @ unit_protos


def ref_ia(zh, labels, temperature, scale):
    n = zh.shape[0]
    y = np.asarray(labels, dtype=np.int64)
    positives = (y[:, None] == y[None, :]).astype(np.float64)
    np.fill_diagonal(positives, 0.0)
    counts = positives.sum(axis=1)
    contributing = counts > 0
    n_anchors = int(contributing.sum())
    if n_anchors == 0:
        return 0.0, np.zeros_like(zh)
    sims = (zh @ zh.T) * (1.0 / temperature)
    np.fill_diagonal(sims, -1e30)
    log_prob, prob, _ = ref_log_softmax(sims)
    weighted = positives * (1.0 / np.maximum(counts, 1.0))[:, None]
    value = -np.vdot(log_prob, weighted) * (1.0 / n_anchors)
    if n_anchors < n:
        prob = prob * contributing[:, None]
    grad_sims = prob - weighted
    return float(value), ((grad_sims + grad_sims.T) @ zh) * (scale / (temperature * n_anchors))


def ref_freeze_decisions(uw, uw2, us, cfg):
    gate_probs = ref_softmax_rows(uw.cc_logits, cfg.gate_temperature)
    phi, cc_conf, od_conf, pseudo = dual_gate(
        gate_probs, ref_two_way_probs(uw.id_logits, uw.ood_logits)[0], cfg.tau_id, cfg.eta_id)
    eta_neg = cfg.head.eta_neg
    return Decisions(
        phi=phi, cc_conf=cc_conf, od_conf=od_conf, pred_class=pseudo,
        pl_accept=ref_softmax_rows(uw.cc_logits)[np.arange(pseudo.size), pseudo]
        > cfg.head.tau_pl,
        negative=np.concatenate([ref_negatives(uw.id_logits, uw.ood_logits, eta_neg),
                                 np.zeros(uw2.id_logits.shape),
                                 ref_negatives(us.id_logits, us.ood_logits, eta_neg)]),
    )


def ref_objective(outputs, labels, unit_protos, decisions, cfg):
    head, sna_w = cfg.head, cfg.sna
    views = ("x_w", "u_w", "u_w2", "u_s")
    xw, uw, uw2, us = (outputs[view] for view in views)
    weights, slopes = cfg.weights_and_slopes
    phi, pseudo, accept = decisions.phi, decisions.pred_class, decisions.pl_accept
    b, m, k = len(labels), len(phi), xw.cc_logits.shape[1]
    terms = dict.fromkeys(LEAVES, 0.0)
    grads = {view: {} for view in views}

    # The classifier on every view: a target row and a weight per row.
    pseudo_target = one_hot(pseudo, k) * accept[:, None]
    targets = {"x_w": one_hot(labels, k), "u_w": one_hot(pseudo, k) * phi[:, None],
               "u_w2": pseudo_target, "u_s": pseudo_target}
    scales = {"x_w": np.full(b, slopes["x"] / b), "u_w": np.zeros(m), "u_w2": np.zeros(m),
              "u_s": accept * (slopes["u"] / m)}
    losses = {}
    for view in views:
        losses[view], grads[view]["cc_logits"] = ref_classifier(
            outputs[view].cc_logits, targets[view], scales[view])
    terms["x"] = losses["x_w"].sum() * (1.0 / b)
    if head.lambda_u > 0:
        terms["u"] = losses["u_s"].sum() * (1.0 / m)

    # The detector: the two-way terms' ID gradients, each view's OOD gradient their
    # negative, then socr on the ID logits.
    value, ova_g = ref_ova(xw.id_logits, xw.ood_logits, targets["x_w"], slopes["ova"] / b)
    terms["ova"] = value * (1.0 / b)
    two_way_g = {"x_w": ova_g, **{view: np.zeros((m, k)) for view in views[1:]}}
    if head.lambda_em > 0:
        value, two_way_g["u_w"] = ref_em(uw.id_logits, uw.ood_logits, slopes["em"] / m)
        terms["em"] = value * (1.0 / m)
    if head.lambda_neg > 0:
        products = []
        for view, selected in zip(views[1:], np.split(decisions.negative, 3)):
            rows, g = ref_neg_rows(outputs[view].id_logits, outputs[view].ood_logits, selected,
                                   slopes["neg"] / m)
            products.append(rows)
            two_way_g[view] = two_way_g[view] + g
        terms["neg"] = float(-np.concatenate(products).sum()) * (1.0 / m)
    for view in views:
        grads[view]["id_logits"] = two_way_g[view]
        grads[view]["ood_logits"] = -two_way_g[view]
    if head.lambda_socr > 0:
        value, g = ref_socr(uw.id_logits, uw2.id_logits, slopes["socr"] / m)
        terms["socr"] = value * (1.0 / m)
        grads["u_w"]["id_logits"] = grads["u_w"]["id_logits"] + g
        grads["u_w2"]["id_logits"] = -g

    # Alignment: the views an enabled term reads, one usna pass over their stacked
    # unit rows, ia on the x_w rows, one projection.
    t = sna_w.temperature
    sna_views = [view for view, on in (
        ("x_w", sna_w.lambda_ia > 0 or sna_w.lambda_pa > 0), ("u_w", sna_w.lambda_usna > 0))
        if on]
    if sna_views:
        unit = {view: ref_unit_rows(outputs[view].embeddings) for view in sna_views}
        g_unit = {view: np.zeros(unit[view][0].shape) for view in sna_views}
        if sna_w.lambda_usna > 0 or sna_w.lambda_pa > 0:
            row_scales = {"x_w": np.full(b, slopes["pa"] / b),
                          "u_w": np.full(m, slopes["usna"] / m)}
            rows, g = ref_usna_rows(np.concatenate([unit[view][0] for view in sna_views]),
                                    unit_protos,
                                    np.concatenate([targets[view] for view in sna_views]),
                                    np.concatenate([row_scales[view] for view in sna_views]), t)
            ends = np.cumsum([len(unit[view][0]) for view in sna_views])
            for view, end in zip(sna_views, ends):
                g_unit[view] = g[end - len(unit[view][0]):end]
                if view == "x_w" and sna_w.lambda_pa > 0:
                    terms["pa"] = rows[:end].sum() * (1.0 / b)
                if view == "u_w":
                    terms["usna"] = rows[end - m:end].sum() * (1.0 / m)
        if sna_w.lambda_ia > 0:
            terms["ia"], g = ref_ia(unit["x_w"][0], labels, t, slopes["ia"])
            g_unit["x_w"] = g_unit["x_w"] + g
        for view in sna_views:
            grads[view]["embeddings"] = ref_tangential(g_unit[view], *unit[view])
    terms["total"] = compose(terms, weights)["total"]
    return terms, grads


def ref_rows(result, index):
    return ForwardResult(*(getattr(result, f.name)[index] for f in fields(result)))


def ref_backward(params, inputs, closure):
    spec = params.spec
    x = np.concatenate([inputs[view] for view in inputs])
    layer_inputs = {}
    f, z, cc, od = _forward_core(spec, params.views, x, relu=_relu, layer_inputs=layer_inputs)
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
        grads[f"{name}.b"] = np.ones(len(g)) @ g
        return g @ params.views[f"{name}.W"].T

    g = through("cc", g_cc) + through("od", g_od)
    g += through("proj0", through("proj1", g_z) * (layer_inputs["proj1"] > 0))
    for i in reversed(range(len(spec.backbone_widths) + 1)):
        g = through(f"backbone{i}", g)
        if i > 0:
            g *= layer_inputs[f"backbone{i}"] > 0
    return np.concatenate([grads[name].ravel() for name in params.views])


def reference_step(params, inputs, labels, unit_protos, cfg):
    """The per-view step: (terms, decisions, flat gradient)."""
    seen = {}

    def closure(outputs):
        seen["decisions"] = decisions = ref_freeze_decisions(outputs["u_w"], outputs["u_w2"],
                                                             outputs["u_s"], cfg)
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
        rows = step_rows(out, len(labels), cfg.gate_temperature)
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
    # More classes than a byte indexes: the gate log stores pred_class as uint16.
    "300-classes": {"spec": replace(SPEC, num_classes=300), "labels": (0, 0, 299, 256, 256, 1),
                    "unlabeled": 32},
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
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("pl_accept", "negative"):
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
    # The closure that trains gives the same gradient, and logs the gate in its step's row,
    # each array in its stored dtype.
    record, m = {"step": 1}, len(inputs["u_w"])
    gate_detail = {name: np.zeros((2, m), dtype)
                   for name, dtype in gate_detail_dtypes(params.spec.num_classes).items()}
    closure = _make_closure(cfg, labels, unit_protos, record, [], gate_detail)
    trained = backward(params, x, closure)
    assert trained.tobytes() == want_flat.tobytes()
    # The record logs the leaves alone, and compose replays the total the closure returned.
    assert list(record["terms"]) == list(LEAVES)
    assert compose(record["terms"], cfg.weights_and_slopes[0])["total"] == want_terms["total"]
    for name, array in gate_detail.items():
        want = getattr(want_decisions, name)
        assert np.array_equal(array[1], want), name
        assert array[1].tobytes() == want.astype(array.dtype).tobytes(), name
        assert not array[0].any(), name


def test_thresholds_split_every_decision():
    params, inputs, labels, unit_protos, cfg = case_inputs()
    x = np.concatenate(list(inputs.values()))
    decisions = stacked_step(params, x, labels, unit_protos, cfg)[1]
    neg_w, _, neg_s = np.split(decisions.negative, 3)
    for mask in (decisions.phi, decisions.pl_accept, neg_w.any(axis=1), neg_s.any(axis=1)):
        assert 0 < mask.sum() < mask.size
