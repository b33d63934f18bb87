import math

import numpy as np
import pytest

from skipalign.heads import compose, normalize, one_hot
from skipalign.sna import SnaWeights, dual_gate, ia, tangential, usna
from skipalign.trainer import TrainConfig
from fd_oracle import finite_diff_grad


def orthonormal_protos(k: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return normalize(q[:k])[0]


TWO_PROTOS = normalize(np.array([[1.0, 0.0], [0.0, 1.0]]))[0]


def usna_mean(z, protos: np.ndarray, phi, k_hat, temperature: float):
    """`usna` over the rows of z as one batch mean: (value, gradient w.r.t. z)."""
    unit, norms = normalize(np.asarray(z, dtype=np.float64))
    pull = one_hot(k_hat, len(protos)) * np.asarray(phi, dtype=np.float64)[:, None]
    losses, grad = usna(unit, protos, pull, np.full(len(unit), 1.0 / len(unit)), temperature)
    return float(losses.mean()), tangential(grad, unit, norms)


def usna_loss(z, protos: np.ndarray, phi: int, k_hat: int, temperature: float) -> float:
    """`usna` on a single embedding: its value."""
    return usna_mean(np.asarray(z, dtype=np.float64)[None, :], protos, [phi], [k_hat],
                     temperature)[0]


def usna_grad(z, protos: np.ndarray, phi: int, k_hat: int, temperature: float):
    """`usna` on a single embedding: its gradient row."""
    return usna_mean(np.asarray(z, dtype=np.float64)[None, :], protos, [phi], [k_hat],
                     temperature)[1][0]


def pa(z, protos: np.ndarray, labels, temperature: float):
    """Prototype alignment: `usna` with the gate open on every row."""
    return usna_mean(z, protos, np.ones(len(z)), labels, temperature)


def pa_loss(z, protos: np.ndarray, y: int, temperature: float) -> float:
    return pa(np.asarray(z, dtype=np.float64)[None, :], protos, [y], temperature)[0]


def ia_mean(z, labels, temperature: float):
    """`ia` over the rows of z: (value, gradient w.r.t. z)."""
    unit, norms = normalize(np.asarray(z, dtype=np.float64))
    labels = np.asarray(labels)
    value, grad = ia(unit, one_hot(labels, labels.max() + 1), temperature, 1.0)
    return value, tangential(grad, unit, norms)


class TestDualGate:
    def test_both_gates_pass(self):
        phi, cc_conf, od_conf, pred_class = dual_gate(
            np.array([[0.995, 0.005]]), np.array([[0.7, 0.1]]), tau_id=0.99, eta_id=0.5)
        assert phi.tolist() == [1]
        assert pred_class.tolist() == [0]
        assert cc_conf[0] == pytest.approx(0.995)
        assert od_conf[0] == pytest.approx(0.7)

    def test_classifier_gate_fails(self):
        phi, *_ = dual_gate(np.array([[0.6, 0.4]]), np.array([[0.99, 0.0]]),
                            tau_id=0.99, eta_id=0.5)
        assert phi.tolist() == [0]

    def test_detector_gate_fails(self):
        phi, *_ = dual_gate(np.array([[0.995, 0.005]]), np.array([[0.4, 0.1]]),
                            tau_id=0.99, eta_id=0.5)
        assert phi.tolist() == [0]

    def test_argmax_tie_breaks_low(self):
        *_, pred_class = dual_gate(np.array([[0.5, 0.5]]), np.array([[0.9, 0.9]]),
                                   tau_id=0.4, eta_id=0.5)
        assert pred_class.tolist() == [0]

    def test_threshold_range_validated(self):
        # The training config owns the gate thresholds.
        with pytest.raises(ValueError, match="tau_id"):
            TrainConfig(tau_id=1.5)

    def test_monotonicity_in_both_thresholds(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((50, 4))
        cc = np.exp(logits)
        cc /= cc.sum(axis=1, keepdims=True)
        od = rng.uniform(0, 1, size=(50, 4))
        grid = [0.0, 0.2, 0.5, 0.8, 0.95]
        for t_lo in grid:
            for t_hi in grid:
                if t_lo > t_hi:
                    continue
                for e_lo in grid:
                    for e_hi in grid:
                        if e_lo > e_hi:
                            continue
                        loose = set(np.nonzero(dual_gate(cc, od, t_lo, e_lo)[0])[0])
                        tight = set(np.nonzero(dual_gate(cc, od, t_hi, e_hi)[0])[0])
                        assert tight <= loose


class TestUsnaLoss:
    def test_aligned_gated_pull(self):
        # z on prototype 0, gate open: -1 + log(e + 1)
        loss = usna_loss([1, 0], TWO_PROTOS, phi=1, k_hat=0, temperature=1.0)
        assert loss == pytest.approx(-1 + math.log(math.e + 1), abs=1e-12)

    def test_aligned_gate_closed(self):
        loss = usna_loss([1, 0], TWO_PROTOS, phi=0, k_hat=0, temperature=1.0)
        assert loss == pytest.approx(math.log(math.e + 1), abs=1e-12)

    def test_equidistant_symmetry(self):
        protos = orthonormal_protos(4, 8, seed=5)
        # orthogonal to every prototype: all similarities zero
        rng = np.random.default_rng(6)
        z = rng.standard_normal(8)
        z -= protos.T @ (protos @ z)
        loss = usna_loss(z, protos, phi=0, k_hat=2, temperature=1.0)
        assert loss == pytest.approx(math.log(4), abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            protos = normalize(rng.standard_normal((3, 5)))[0]
            z = rng.standard_normal(5)
            t = rng.uniform(0.1, 2.0)
            phi = int(rng.integers(0, 2))
            base = usna_loss(z, protos, phi, 1, t)
            for c in (1e-3, 1.0, 1e3):
                assert usna_loss(c * z, protos, phi, 1, t) == pytest.approx(base, abs=1e-10)

    def test_degenerate_embedding_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            usna_loss([0.0, 0.0], TWO_PROTOS, 1, 0, 1.0)


class TestUsnaGrad:
    def test_aligned_hand_value(self):
        # z = mu_0: pull and the mu_0 part of the mixture are radial, leaving
        # alpha_1 * mu_1.
        g = usna_grad([1, 0], TWO_PROTOS, phi=1, k_hat=0, temperature=1.0)
        alpha1 = 1 / (1 + math.e)
        np.testing.assert_allclose(g, [0.0, alpha1], atol=1e-12)

    def test_orthogonal_to_embedding(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            protos = normalize(rng.standard_normal((4, 6)))[0]
            z = rng.standard_normal(6) * rng.uniform(0.5, 2)
            phi = int(rng.integers(0, 2))
            g = usna_grad(z, protos, phi, 0, rng.uniform(0.1, 2))
            assert abs(np.dot(z, g)) <= 1e-12 * max(np.linalg.norm(g), 1e-30) * np.linalg.norm(z)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            k = int(rng.integers(2, 9))
            protos = normalize(rng.standard_normal((k, dim)))[0]
            z = rng.standard_normal(dim)
            phi = int(rng.integers(0, 2))
            k_hat = int(rng.integers(0, k))
            t = rng.uniform(0.1, 2.0)
            analytic = usna_grad(z, protos, phi, k_hat, t)
            numeric = finite_diff_grad(lambda v: usna_loss(v, protos, phi, k_hat, t), z)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel <= 1e-6

    def test_pull_step_increases_predicted_similarity(self):
        # Regime where the pull provably dominates: orthonormal prototypes and
        # an embedding inside their non-negative similarity cone.
        rng = np.random.default_rng(10)
        for trial in range(100):
            k, dim = 4, 8
            protos = orthonormal_protos(k, dim, seed=trial)
            mix = rng.uniform(0.05, 1.0, size=k)
            z = mix @ protos
            k_hat = int(np.argmax(protos @ (z / np.linalg.norm(z))))
            before = float(np.dot(protos[k_hat], z / np.linalg.norm(z)))
            if before > 1 - 1e-9:
                continue
            g = usna_grad(z, protos, phi=1, k_hat=k_hat, temperature=0.5)
            z2 = z - 1e-4 * g
            after = float(np.dot(protos[k_hat], z2 / np.linalg.norm(z2)))
            assert after > before

    def test_repulsion_never_lifts_dominant_similarity(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            protos = normalize(rng.standard_normal((5, 7)))[0]
            j = int(rng.integers(0, 5))
            z = protos[j] * rng.uniform(0.5, 2.0)
            sims_before = protos @ (z / np.linalg.norm(z))
            g = usna_grad(z, protos, phi=0, k_hat=j, temperature=0.7)
            z2 = z - 1e-4 * g
            sims_after = protos @ (z2 / np.linalg.norm(z2))
            assert sims_after.max() <= sims_before.max() + 1e-9

    def test_repulsion_step_decreases_loss(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            protos = normalize(rng.standard_normal((4, 6)))[0]
            z = rng.standard_normal(6)
            g = usna_grad(z, protos, phi=0, k_hat=0, temperature=0.5)
            before = usna_loss(z, protos, 0, 0, 0.5)
            after = usna_loss(z - 1e-4 * g, protos, 0, 0, 0.5)
            assert after <= before + 1e-9


class TestIaLoss:
    def test_identical_pair_is_zero(self):
        loss, grad = ia_mean(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 0]),
                        temperature=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_orthogonal_same_class_pair_is_zero(self):
        loss, _ = ia_mean(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0]),
                     temperature=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_three_sample_hand_value(self):
        # Anchors 0 and 1 (same class, identical); sample 2 orthogonal, other
        # class. Each contributing anchor: -log(e / (e + 1)).
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loss, _ = ia_mean(z, np.array([0, 0, 1]), temperature=1.0)
        expected = -math.log(math.e / (math.e + 1))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_all_distinct_labels_flagged(self):
        loss, grad = ia_mean(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 1.0)
        assert loss == 0.0 and not grad.any()

    def test_single_sample_has_no_pairs(self):
        loss, grad = ia_mean(np.array([[1.0, 0.0]]), np.array([0]), 1.0)
        assert loss == 0.0 and not grad.any()


class TestPaLoss:
    def test_aligned_hand_value(self):
        loss = pa_loss([1, 0], TWO_PROTOS, y=0, temperature=1.0)
        assert loss == pytest.approx(-1 + math.log(math.e + 1), abs=1e-12)

    def test_misaligned_hand_value(self):
        loss = pa_loss([0, 1], TWO_PROTOS, y=0, temperature=1.0)
        assert loss == pytest.approx(math.log(1 + math.e), abs=1e-12)

    def test_equals_gated_unlabeled_loss(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            protos = normalize(rng.standard_normal((4, 6)))[0]
            z = rng.standard_normal(6)
            y = int(rng.integers(0, 4))
            t = rng.uniform(0.1, 2.0)
            assert pa_loss(z, protos, y, t) == usna_loss(z, protos, 1, y, t)


class TestSnaTotal:
    """The alignment composite as `compose` forms it from hand-valued leaves."""

    LABELED = np.array([[1.0, 0.0], [1.0, 0.0]])

    def _sna(self, lambda_usna, lambda_ia, lambda_pa, usna_value, ia_value, pa_value) -> float:
        terms = {"x": 0.0, "u": 0.0, "ova": 0.0, "em": 0.0, "socr": 0.0, "neg": 0.0,
                 "usna": usna_value, "ia": ia_value, "pa": pa_value}
        weights = {"lambda_u": 0.0, "lambda_em": 0.0, "lambda_socr": 0.0, "lambda_neg": 0.0,
                   "lambda_cc": 0.0, "lambda_od": 0.0, "lambda_sna": 1.0,
                   "lambda_usna": lambda_usna, "lambda_ia": lambda_ia, "lambda_pa": lambda_pa}
        out = compose(terms, weights)
        assert out["total"] == out["sna"]
        return out["sna"]

    def _leaves(self):
        # One gated unlabeled sample aligned with prototype 0, and a labeled
        # identical pair of class 0.
        labels = np.array([0, 0])
        return (usna_loss([1.0, 0.0], TWO_PROTOS, 1, 0, 1.0),
                ia_mean(self.LABELED, labels, 1.0)[0],
                pa(self.LABELED, TWO_PROTOS, labels, 1.0)[0])

    def test_all_zero_weights(self):
        assert self._sna(0.0, 0.0, 0.0, *self._leaves()) == 0.0

    def test_single_unlabeled_reduction(self):
        assert self._sna(1.0, 0.0, 0.0, *self._leaves()) == pytest.approx(
            usna_loss([1, 0], TWO_PROTOS, 1, 0, 1.0), abs=1e-14)

    def test_composition_of_hand_values(self):
        usna_value, ia_value, pa_value = self._leaves()
        term = -1 + math.log(math.e + 1)
        # usna: one gated aligned sample; ia: identical pair -> 0; pa: both
        # labeled samples aligned with their prototype.
        assert usna_value == pytest.approx(term, abs=1e-12)
        assert ia_value == pytest.approx(0.0, abs=1e-12)
        assert pa_value == pytest.approx(term, abs=1e-12)
        assert self._sna(1.0, 1.0, 1.0, usna_value, ia_value, pa_value) == pytest.approx(
            2 * term, abs=1e-12)


class TestSnaWeights:
    def test_temperature_validated(self):
        with pytest.raises(ValueError):
            SnaWeights(temperature=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SnaWeights(lambda_ia=-0.1)
