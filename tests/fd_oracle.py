"""The closed-form gradients against central differences: the first oracle.

Central differences (`finite_diff_grad`) probe the production value directly.
Three checks, which criteria 1 and 3 of the acceptance suite run:
  1. the angular gradient of the unlabeled alignment loss,
  2. the gradient of the training objective through the network, at each
     loss_combo setting of the alignment weights,
  3. the closed-form feature gradient of cross-entropy under a linear head.
Check 2 runs the step that trains, on a stacked batch; its discrete decisions
are frozen at the base point, so the finite differences probe a smooth function.
`tape_oracle` holds checks 2 and 3 against the autodiff tape. A helper of the
tests, not a test module: pytest does not collect it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from skipalign.heads import HeadWeights, classifier, log_softmax, normalize, one_hot
from skipalign.net import NetSpec, ParamState, backward, forward, init_params, param_count
from skipalign.sna import LOSS_COMBOS, SnaWeights, tangential, usna
from skipalign.trainer import Decisions, TrainConfig, freeze_decisions, objective, step_rows


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field at a finite 1-D point x, one
    coordinate at a time.

    The oracle against which every analytic gradient in skipalign is
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


def objective_gradient(params: ParamState, x: np.ndarray, labels: np.ndarray,
                       unit_protos: np.ndarray, decisions: Decisions, cfg: TrainConfig
                       ) -> np.ndarray:
    """The objective's parameter gradient in closed form on a step's stacked batch x
    (x_w, u_w, u_w2, u_s), as `train` takes it, under frozen decisions."""
    def closure(out):
        rows = step_rows(out, len(labels), cfg.gate_temperature)
        terms, grads = objective(rows, labels, unit_protos, decisions, cfg)
        return terms["total"], grads

    return backward(params, x, closure)


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


def training_gradient_cases(seed: int = 0):
    """One step of a network under 500 parameters, one case per loss_combo setting of
    the alignment weights, so the zero-weight skips are covered: (params, inputs by
    view, labels, unit prototypes, decisions, config). The decisions are the trainer's
    own, frozen once at the base point."""
    spec = NetSpec(input_dim=3, backbone_widths=(4,), feature_dim=3, proj_hidden=3,
                   embed_dim=2, num_classes=2, seed=seed)
    params = init_params(spec)
    rng = np.random.default_rng(seed + 1)
    labels = np.array([0, 0, 1, 1])
    inputs = {view: rng.standard_normal((rows, spec.input_dim))
              for view, rows in (("x_w", 4), ("u_w", 6), ("u_w2", 6), ("u_s", 6))}
    unit_protos = normalize(rng.standard_normal((spec.num_classes, spec.embed_dim)))[0]
    head = HeadWeights(lambda_u=1.0, lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                       lambda_cc=1.0, lambda_od=0.9, lambda_sna=0.4,
                       tau_pl=0.4, eta_neg=0.5)
    sna_w = SnaWeights(lambda_usna=1.0, lambda_ia=0.8, lambda_pa=0.6, temperature=0.7)
    base_cfg = TrainConfig(head=head, sna=sna_w, tau_id=0.4, eta_id=0.3,
                           gate_temperature=1.0)
    rows = step_rows(forward(params, np.concatenate(list(inputs.values()))), len(labels),
                     base_cfg.gate_temperature)
    decisions = freeze_decisions(rows, base_cfg)
    for combo in LOSS_COMBOS.values():
        cfg = replace(base_cfg, sna=replace(sna_w, **combo))
        yield params, inputs, labels, unit_protos, decisions, cfg


def objective_fd_error(params: ParamState, inputs: dict, labels: np.ndarray,
                       unit_protos: np.ndarray, decisions: Decisions, cfg: TrainConfig,
                       step: float = 1e-5) -> float:
    """Relative error of the objective's closed-form parameter gradient on the views of
    `inputs` stacked as `train` stacks them, against central differences of its value."""
    x = np.concatenate(list(inputs.values()))

    def total(flat):
        rows = step_rows(forward(ParamState(spec=params.spec, flat=flat), x), len(labels),
                         cfg.gate_temperature)
        return objective(rows, labels, unit_protos, decisions, cfg)[0]["total"]

    closed = objective_gradient(params, x, labels, unit_protos, decisions, cfg)
    return _rel(closed, finite_diff_grad(total, params.flat, step))


def full_model_gradient_check(seed: int = 0, step: float = 1e-5) -> tuple[float, int]:
    """The training gradient against central differences of the training value,
    over `training_gradient_cases`: (worst relative error, parameter count)."""
    cases = list(training_gradient_cases(seed))
    return (max(objective_fd_error(*case, step=step) for case in cases),
            param_count(cases[0][0].spec))


def ce_feature_cases(n_configs: int = 20, seed: int = 0):
    """Random linear heads: (weights, features f, label y, the closed-form CE feature
    gradient at f, the CE value as a function of f). The closed form is the logit
    gradient `heads.classifier` returns on the head's `log_softmax`, times the head's
    weights."""
    rng = np.random.default_rng(seed)
    for _ in range(n_configs):
        d_f = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        weights = rng.standard_normal((d_f, k))
        f = rng.standard_normal(d_f)
        y = np.array([int(rng.integers(0, k))])

        def ce(v, weights=weights, y=y, k=k):  # one row's cross-entropy and logit gradient
            return classifier(*log_softmax((v @ weights)[None, :])[:2], one_hot(y, k), np.ones(1))

        yield weights, f, y, (ce(f)[1] @ weights.T)[0], lambda v, ce=ce: ce(v)[0][0]


def ce_feature_gradient_check(n_configs: int = 20, seed: int = 0) -> float:
    """Max relative error of the closed-form CE feature gradient under a linear head
    against central differences of the `heads.classifier` value."""
    return max(_rel(closed_form, finite_diff_grad(value, f))
               for _, f, _, closed_form, value in ce_feature_cases(n_configs, seed))

