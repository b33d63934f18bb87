"""Alignment losses: the closed forms against their tape twins."""

import numpy as np
import pytest

import skipalign.tensor_losses as tl
from skipalign.autodiff import constant, parameter
from skipalign.linalg import finite_diff_grad
from skipalign.prototypes import PrototypeSet
from skipalign.sna import ia, pa, usna


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
            unit_protos = PrototypeSet.from_means(rng.standard_normal((k, dim))).unit_directions()
            z = rng.standard_normal((batch, dim))
            phi = rng.integers(0, 2, batch)
            pred = rng.integers(0, k, batch)
            t = rng.uniform(0.1, 2.0)
            value, grad = usna(z, unit_protos, phi, pred, t)
            want, want_grad = tape(lambda e: tl.usna_graph(e, unit_protos, phi, pred, t), z)
            assert value == pytest.approx(want, rel=1e-12)
            assert rel(grad, want_grad) <= 1e-12

    def test_gradient_matches_analytic_per_row(self):
        # Rows are independent: each row's gradient is its own sample's, over B.
        rng = np.random.default_rng(1)
        k, dim, batch = 3, 5, 4
        unit_protos = PrototypeSet.from_means(rng.standard_normal((k, dim))).unit_directions()
        z = rng.standard_normal((batch, dim))
        phi = rng.integers(0, 2, batch)
        pred = rng.integers(0, k, batch)
        t = 0.7
        _, grad = tape(lambda e: tl.usna_graph(e, unit_protos, phi, pred, t), z)
        for i in range(batch):
            row = usna(z[i:i + 1], unit_protos, phi[i:i + 1], pred[i:i + 1], t)[1][0]
            np.testing.assert_allclose(grad[i], row / batch, atol=1e-12)


class TestPaGraph:
    def test_value_parity_with_reference(self):
        rng = np.random.default_rng(2)
        k, dim, batch = 4, 6, 5
        unit_protos = PrototypeSet.from_means(rng.standard_normal((k, dim))).unit_directions()
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
            value, grad = ia(z, labels, t)
            want, want_grad = tape(lambda e: tl.ia_graph(e, labels, t), z)
            assert value == pytest.approx(want, rel=1e-12)
            assert rel(grad, want_grad) <= 1e-12

    def test_no_positive_pairs_gives_zero(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 2])
        assert tl.ia_graph(parameter(z), labels, 0.5).item() == 0.0
        value, grad = ia(z, labels, 0.5)
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
        closed = finite_diff_grad(lambda flat: ia(flat.reshape(z0.shape), labels, t)[0],
                                  z0.ravel()).reshape(z0.shape)
        assert rel(ia(z0, labels, t)[1], closed) <= 1e-7
