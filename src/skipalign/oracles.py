"""Gradient-oracle suite: every analytic gradient against central differences.

Three checks, mirroring what the test suite enforces:
  1. the analytic angular gradient of the unlabeled alignment loss,
  2. the tape gradient of the training objective through the network, at
     each loss_combo setting of the alignment weights,
  3. the closed-form feature gradient of cross-entropy under a linear head.
Discrete decisions are frozen at the base point for check 2, so the finite
differences probe a smooth function.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tensor_losses as tl
from .autodiff import constant, parameter
from .heads import HeadWeights, ce_loss
from .linalg import finite_diff_grad, softmax_rows
from .net import NetSpec, ParamState, forward_tensors, init_params, param_count
from .net import backward as net_backward
from .prototypes import PrototypeSet
from .sna import LOSS_COMBOS, SnaWeights, usna_grad, usna_loss
from .trainer import TrainConfig, freeze_decisions, objective


def usna_gradient_check(n_configs: int = 100, seed: int = 0, step: float = 1e-6) -> float:
    """Max relative error of the analytic gradient over random configurations.

    Dimensions, prototype counts, temperatures, and the gate all vary.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(2, 9))
        temperature = float(rng.uniform(0.1, 2.0))
        protos = PrototypeSet.from_means(rng.standard_normal((k, dim)))
        z = rng.standard_normal(dim) * float(rng.uniform(0.5, 3.0))
        phi = int(rng.integers(0, 2))
        k_hat = int(rng.integers(0, k))
        analytic = usna_grad(z, protos, phi, k_hat, temperature)
        numeric = finite_diff_grad(
            lambda v: usna_loss(v, protos, phi, k_hat, temperature), z, step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    return worst


def full_model_gradient_check(seed: int = 0, step: float = 1e-5) -> tuple[float, int]:
    """Tape gradient of the training objective vs central differences.

    The objective is the trainer's own, with its decisions frozen once at the
    base point; it is checked at each loss_combo setting of the alignment
    weights, so the zero-weight skips are covered. Returns (worst relative
    error, parameter count); the network stays under 500 parameters.
    """
    spec = NetSpec(input_dim=3, backbone_widths=(4,), feature_dim=3, proj_hidden=3,
                   embed_dim=2, num_classes=2, proj_nonlinear=True, seed=seed)
    params = init_params(spec)
    rng = np.random.default_rng(seed + 1)
    labels = np.array([0, 0, 1, 1])
    inputs = {
        "x_w": rng.standard_normal((4, spec.input_dim)),
        "u_w": rng.standard_normal((6, spec.input_dim)),
        "u_w2": rng.standard_normal((6, spec.input_dim)),
        "u_s": rng.standard_normal((6, spec.input_dim)),
    }
    unit_protos = PrototypeSet.from_means(
        rng.standard_normal((spec.num_classes, spec.embed_dim))).unit_directions()
    head = HeadWeights(lambda_u=1.0, lambda_em=0.3, lambda_socr=0.5, lambda_neg=0.7,
                       lambda_cc=1.0, lambda_od=0.9, lambda_sna=0.4,
                       tau_pl=0.4, eta_neg=0.5)
    sna_w = SnaWeights(lambda_usna=1.0, lambda_ia=0.8, lambda_pa=0.6, temperature=0.7)
    base_cfg = TrainConfig(head=head, sna=sna_w, tau_id=0.4, eta_id=0.3,
                           gate_temperature=1.0)

    def outputs_at(flat: np.ndarray) -> dict:
        state = ParamState(spec=spec, flat=flat)
        tensors = {name: constant(state.view(name)) for name in state.names()}
        return {name: forward_tensors(spec, tensors, x) for name, x in inputs.items()}

    base = outputs_at(params.flat)
    decisions = freeze_decisions(base["u_w"], base["u_s"], base_cfg)
    worst = 0.0
    for combo in LOSS_COMBOS.values():
        cfg = replace(base_cfg, sna=replace(sna_w, **combo))

        def loss(outputs):
            return objective(outputs, labels, unit_protos, decisions, cfg)[0]["total"]

        analytic = net_backward(params, inputs, loss)
        numeric = finite_diff_grad(lambda flat: loss(outputs_at(flat)).item(),
                                   params.flat, step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
    return worst, param_count(spec)


def ce_feature_gradient_check(n_configs: int = 20, seed: int = 0) -> tuple[float, float]:
    """Closed-form CE feature gradient under a linear head.

    Returns (max abs deviation from the tape gradient, max relative error
    against central differences).
    """
    rng = np.random.default_rng(seed)
    worst_tape = 0.0
    worst_fd = 0.0
    for _ in range(n_configs):
        d_f = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        weights = rng.standard_normal((d_f, k))
        f = rng.standard_normal(d_f)
        y = int(rng.integers(0, k))
        alpha = softmax_rows((f @ weights)[None, :])[0]
        delta = np.zeros(k)
        delta[y] = 1.0
        closed_form = (alpha - delta) @ weights.T

        ft = parameter(f[None, :])
        loss = tl.ce_graph(ft @ constant(weights), np.array([y]))
        loss.backward()
        worst_tape = max(worst_tape, float(np.max(np.abs(closed_form - ft.grad[0]))))

        numeric = finite_diff_grad(
            lambda v: ce_loss(softmax_rows((v @ weights)[None, :]), [y]), f)
        rel = np.linalg.norm(closed_form - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_fd = max(worst_fd, rel)
    return worst_tape, worst_fd


def run_gradcheck_suite(verbose: bool = False) -> list[tuple[str, bool, str]]:
    results = []

    rel = usna_gradient_check(n_configs=100)
    results.append(("usna gradient vs central differences (100 configs)",
                    rel <= 1e-6, f"max rel err {rel:.3e} (tol 1e-6)"))

    rel, n_params = full_model_gradient_check()
    results.append((f"full objective backward vs central differences ({n_params} params, "
                    f"{len(LOSS_COMBOS)} loss combos)",
                    rel <= 1e-5, f"max rel err {rel:.3e} (tol 1e-5)"))

    tape_dev, fd_rel = ce_feature_gradient_check()
    results.append(("cross-entropy feature gradient identity (linear head)",
                    tape_dev <= 1e-10 and fd_rel <= 1e-6,
                    f"tape dev {tape_dev:.3e} (tol 1e-10), fd rel {fd_rel:.3e} (tol 1e-6)"))

    if verbose:
        for name, passed, detail in results:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return results
