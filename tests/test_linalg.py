import math

import numpy as np
import pytest

from skipalign.data import EmbeddingBatch
from skipalign.linalg import finite_diff_grad, softmax_rows
from skipalign.prototypes import PrototypeSet, proto_similarity_profile
from skipalign.sna import usna
from skipalign.trainer import TrainConfig


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """`softmax_rows` on a single row of logits."""
    return softmax_rows(np.asarray([logits], dtype=np.float64), temperature)[0]


def cosine_sim(a, b) -> float:
    """Cosine similarity as the prototype similarity profile computes it."""
    batch = EmbeddingBatch(np.asarray([a], dtype=np.float64))
    protos = PrototypeSet.from_means(np.asarray([b], dtype=np.float64))
    return float(proto_similarity_profile(batch, protos)[0, 0])


def tangential_project(z, v) -> np.ndarray:
    """(I - zz^T/||z||^2) v, as the usna gradient applies it.

    With one prototype along v and the gate closed, the usna gradient is
    v/||v|| projected off z, divided by ||z||.
    """
    z = np.asarray(z, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    unit_protos = PrototypeSet.from_means(v[None, :]).unit_directions()
    grad = usna(z[None, :], unit_protos, [0], [0], temperature=1.0)[1][0]
    return grad * np.linalg.norm(z) * np.linalg.norm(v)


class TestCosineSim:
    def test_identical_unit_vectors(self):
        assert cosine_sim([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_hand_evaluated_dot(self):
        # (3,4)·(4,3) / (5·5) = 24/25
        assert cosine_sim([3, 4], [4, 3]) == pytest.approx(24 / 25, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate vector"):
            cosine_sim([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_sim([1, 0], [1, 0, 0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            alpha, beta = rng.uniform(0.01, 100, size=2)
            assert cosine_sim(a, b) == pytest.approx(cosine_sim(b, a), abs=1e-12)
            assert cosine_sim(alpha * a, beta * b) == pytest.approx(
                cosine_sim(a, b), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = cosine_sim(rng.standard_normal(4), rng.standard_normal(4))
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax([0, 0, 0]), np.full(3, 1 / 3), atol=1e-15)

    def test_two_logit_hand_values(self):
        e = math.e
        np.testing.assert_allclose(softmax([1, 0]), [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_temperature_half(self):
        e2 = math.exp(2)
        np.testing.assert_allclose(softmax([1, 0], temperature=0.5),
                                   [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)

    def test_rejects_nonpositive_temperature(self):
        # The training config owns the gate's softmax temperature.
        for temperature in (0.0, -1.0):
            with pytest.raises(ValueError, match="gate_temperature"):
                TrainConfig(gate_temperature=temperature)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = softmax(rng.standard_normal(6) * 10, temperature=rng.uniform(0.1, 2))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            logits = rng.standard_normal(5)
            c = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax(logits + c), softmax(logits), atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1) < 1e-12

    def test_rows_match_vector_version(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 3))
        rows = softmax_rows(m, temperature=0.7)
        for i in range(4):
            np.testing.assert_allclose(rows[i], softmax(m[i], temperature=0.7), atol=1e-14)


class TestTangentialProject:
    def test_radial_input_annihilated(self):
        np.testing.assert_allclose(tangential_project([1, 0], [1, 0]), [0, 0], atol=1e-15)

    def test_already_tangential(self):
        np.testing.assert_allclose(tangential_project([1, 0], [0, 1]), [0, 1], atol=1e-15)

    def test_diagonal_hand_value(self):
        np.testing.assert_allclose(tangential_project([1, 1], [1, 0]), [0.5, -0.5], atol=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate vector"):
            tangential_project([0, 0], [1, 0])

    def test_orthogonality_and_idempotence(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            z = rng.standard_normal(6)
            v = rng.standard_normal(6)
            p = tangential_project(z, v)
            assert abs(np.dot(z / np.linalg.norm(z), p)) <= 1e-12 * max(np.linalg.norm(v), 1)
            np.testing.assert_allclose(tangential_project(z, p), p, atol=1e-12)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(np.sum(x ** 2)), [1.0, 2.0], step=1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 3.5, [0.3, -0.2, 1.0])
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_cosine_sim_gradient(self):
        # d/dz cos(z, e1) at z=(1,1): tangential part of e1, scaled by 1/||z||.
        g = finite_diff_grad(lambda x: x[0] / np.linalg.norm(x), [1.0, 1.0])
        expected = 0.5 / math.sqrt(2)
        np.testing.assert_allclose(g, [expected, -expected], atol=1e-8)

    def test_second_order_accuracy_on_quadratics(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        b = rng.standard_normal(4)

        def f(x):
            return float(x @ a @ x + b @ x)

        x0 = rng.standard_normal(4)
        analytic = 2 * a @ x0 + b
        for step in (1e-3, 1e-4, 1e-5):
            g = finite_diff_grad(f, x0, step=step)
            # central differences are exact on quadratics up to rounding
            np.testing.assert_allclose(g, analytic, atol=1e-7)

    def test_non_finite_evaluation_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            finite_diff_grad(lambda x: float("nan"), [1.0])
