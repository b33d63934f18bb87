"""Alignment losses: the closed forms against their tape twins."""

import numpy as np
import pytest

import skipalign.tensor_losses as tl
from skipalign.autodiff import constant, parameter
from skipalign.heads import normalize, one_hot
from skipalign.sna import ia, tangential, usna
from fd_oracle import finite_diff_grad


def usna_mean(z, unit_protos, phi, pred, temperature) -> tuple[float, np.ndarray]:
    """`usna` over the rows of z as one batch mean: (value, gradient w.r.t. z)."""
    unit, norms = normalize(np.asarray(z, dtype=np.float64))
    pull = one_hot(pred, len(unit_protos)) * np.asarray(phi, dtype=np.float64)[:, None]
    losses, grad = usna(unit, unit_protos, pull, np.full(len(unit), 1.0 / len(unit)), temperature)
    return float(losses.mean()), tangential(grad, unit, norms)


def pa(z, unit_protos, labels, temperature) -> tuple[float, np.ndarray]:
    """Prototype alignment: `usna` with the gate open on every row."""
    return usna_mean(z, unit_protos, np.ones(len(z)), labels, temperature)


def ia_mean(z, labels, temperature) -> tuple[float, np.ndarray]:
    """`ia` over the rows of z: (value, gradient w.r.t. z)."""
    unit, norms = normalize(np.asarray(z, dtype=np.float64))
    labels = np.asarray(labels)
    value, grad = ia(unit, one_hot(labels, labels.max() + 1), temperature, 1.0)
    return value, tangential(grad, unit, norms)


def tape(build, z: np.ndarray) -> tuple[float, np.ndarray]:
    """A tape loss's value and its gradient w.r.t. the embeddings."""
    zt = parameter(z.copy())
    loss = build(zt)
    loss.backward()
    return loss.item(), zt.grad


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestUsnaGraph:
    def test_value_parity_with_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            k, dim, batch = 4, 6, 5
            unit_protos = normalize(rng.standard_normal((k, dim)))[0]
            z = rng.standard_normal((batch, dim))
            phi = rng.integers(0, 2, batch)
            pred = rng.integers(0, k, batch)
            t = rng.uniform(0.1, 2.0)
            value, grad = usna_mean(z, unit_protos, phi, pred, t)
            want, want_grad = tape(lambda e: tl.usna_graph(e, unit_protos, phi, pred, t), z)
            assert value == pytest.approx(want, rel=1e-12)
            assert rel(grad, want_grad) <= 1e-12

    def test_gradient_matches_analytic_per_row(self):
        # Rows are independent: each row's gradient is its own sample's, over B.
        rng = np.random.default_rng(1)
        k, dim, batch = 3, 5, 4
        unit_protos = normalize(rng.standard_normal((k, dim)))[0]
        z = rng.standard_normal((batch, dim))
        phi = rng.integers(0, 2, batch)
        pred = rng.integers(0, k, batch)
        t = 0.7
        _, grad = tape(lambda e: tl.usna_graph(e, unit_protos, phi, pred, t), z)
        for i in range(batch):
            row = usna_mean(z[i:i + 1], unit_protos, phi[i:i + 1], pred[i:i + 1], t)[1][0]
            np.testing.assert_allclose(grad[i], row / batch, atol=1e-12)


class TestPaGraph:
    def test_value_parity_with_reference(self):
        rng = np.random.default_rng(2)
        k, dim, batch = 4, 6, 5
        unit_protos = normalize(rng.standard_normal((k, dim)))[0]
        z = rng.standard_normal((batch, dim))
        labels = rng.integers(0, k, batch)
        t = 0.5
        value, grad = pa(z, unit_protos, labels, t)
        want, want_grad = tape(lambda e: tl.pa_graph(e, unit_protos, labels, t), z)
        assert value == pytest.approx(want, rel=1e-12)
        assert rel(grad, want_grad) <= 1e-12


class TestIaGraph:
    def test_value_parity_with_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            batch, dim = 8, 5
            z = rng.standard_normal((batch, dim))
            labels = rng.integers(0, 3, batch)
            t = rng.uniform(0.2, 1.5)
            value, grad = ia_mean(z, labels, t)
            want, want_grad = tape(lambda e: tl.ia_graph(e, labels, t), z)
            assert value == pytest.approx(want, rel=1e-12)
            assert rel(grad, want_grad) <= 1e-12

    def test_no_positive_pairs_gives_zero(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 2])
        assert tl.ia_graph(parameter(z), labels, 0.5).item() == 0.0
        value, grad = ia_mean(z, labels, 0.5)
        assert value == 0.0 and not grad.any()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((6, 4))
        labels = np.array([0, 0, 1, 1, 2, 0])
        t = 0.6

        _, grad = tape(lambda e: tl.ia_graph(e, labels, t), z0)

        def value(flat):
            return tl.ia_graph(constant(flat.reshape(z0.shape)), labels, t).item()

        numeric = finite_diff_grad(value, z0.ravel()).reshape(z0.shape)
        assert rel(grad, numeric) <= 1e-7
        closed = finite_diff_grad(lambda flat: ia_mean(flat.reshape(z0.shape), labels, t)[0],
                                  z0.ravel()).reshape(z0.shape)
        assert rel(ia_mean(z0, labels, t)[1], closed) <= 1e-7
