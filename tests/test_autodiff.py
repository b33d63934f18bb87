"""The tape is checked op by op against central finite differences."""

import numpy as np
import pytest

from skipalign.autodiff import constant, logsumexp, normalize_rows, parameter
from skipalign.linalg import finite_diff_grad


def tape_grad(build, x0: np.ndarray) -> np.ndarray:
    t = parameter(x0.copy())
    loss = build(t)
    loss.backward()
    return t.grad.copy()


def fd_grad(build, x0: np.ndarray, step=1e-6) -> np.ndarray:
    shape = x0.shape

    def value(flat):
        return build(constant(flat.reshape(shape))).item()

    return finite_diff_grad(value, x0.ravel(), step).reshape(shape)


def check(build, x0, atol=1e-7):
    np.testing.assert_allclose(tape_grad(build, x0), fd_grad(build, x0), atol=atol)


RNG = np.random.default_rng(0)


class TestElementwiseOps:
    def test_add_mul_chain(self):
        x0 = RNG.standard_normal((3, 4))
        c = RNG.standard_normal((3, 4))
        check(lambda t: ((t * 2.0 + c) * t).sum(), x0)

    def test_sub_div(self):
        x0 = RNG.standard_normal((2, 3)) + 3.0
        c = RNG.standard_normal((2, 3)) + 5.0
        check(lambda t: ((c - t) / t).sum(), x0)

    def test_pow(self):
        x0 = np.abs(RNG.standard_normal(5)) + 0.5
        check(lambda t: (t ** 3).sum(), x0)
        check(lambda t: (t ** -1.5).sum(), x0)

    def test_exp_log(self):
        x0 = np.abs(RNG.standard_normal(6)) + 0.5
        check(lambda t: (t.exp() * t.log()).sum(), x0)

    def test_sqrt(self):
        x0 = np.abs(RNG.standard_normal(4)) + 0.1
        check(lambda t: t.sqrt().sum(), x0)

    def test_relu(self):
        x0 = np.array([-1.3, 0.7, 2.0, -0.4])
        check(lambda t: (t.relu() * t).sum(), x0)


class TestMatmulAndShapes:
    def test_matmul_left_right(self):
        a0 = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 2))
        check(lambda t: (t @ b).sum(), a0)
        a = RNG.standard_normal((3, 4))
        check(lambda t: (a @ (t.T @ t)).sum(), RNG.standard_normal((3, 4)))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            constant(np.ones(3)) @ constant(np.ones((3, 2)))

    def test_broadcast_bias_add(self):
        x = RNG.standard_normal((5, 3))
        b0 = RNG.standard_normal(3)
        check(lambda t: ((x + t) ** 2).sum(), b0)

    def test_broadcast_keepdims_division(self):
        x0 = np.abs(RNG.standard_normal((4, 3))) + 1.0
        check(lambda t: (t / t.sum(axis=1, keepdims=True)).sum(axis=0).sum(), x0)

    def test_getitem_slices_and_fancy(self):
        x0 = RNG.standard_normal((4, 6))
        check(lambda t: (t[:, :3] * t[:, 3:]).sum(), x0)
        idx = (np.array([0, 1, 2, 3]), np.array([5, 0, 2, 2]))
        check(lambda t: (t[idx] ** 2).sum(), x0)

    def test_reshape_transpose(self):
        x0 = RNG.standard_normal((2, 6))
        check(lambda t: (t.reshape(3, 4).T @ np.ones((3, 2))).sum(), x0)

    def test_mean_axis(self):
        x0 = RNG.standard_normal((3, 5))
        check(lambda t: (t.mean(axis=1) ** 2).sum(), x0)
        check(lambda t: t.mean() * 3.0, x0)


class TestCompositeHelpers:
    def test_logsumexp_matches_reference_and_grad(self):
        x0 = RNG.standard_normal((4, 5)) * 10
        t = constant(x0)
        got = logsumexp(t, axis=1).data[:, 0]
        m = x0.max(axis=1, keepdims=True)
        ref = (m + np.log(np.exp(x0 - m).sum(axis=1, keepdims=True)))[:, 0]
        np.testing.assert_allclose(got, ref, atol=1e-12)
        check(lambda t: logsumexp(t, axis=1).sum(), x0)

    def test_logsumexp_gradient_is_softmax(self):
        x0 = RNG.standard_normal(6)
        t = parameter(x0.reshape(1, -1))
        logsumexp(t, axis=1).sum().backward()
        e = np.exp(x0 - x0.max())
        np.testing.assert_allclose(t.grad[0], e / e.sum(), atol=1e-12)

    def test_normalize_rows(self):
        x0 = RNG.standard_normal((3, 4)) + 0.5
        check(lambda t: (normalize_rows(t) @ np.ones((4, 1))).sum(), x0)
        norms = np.linalg.norm(normalize_rows(constant(x0)).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_normalize_rows_rejects_zero_row(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize_rows(constant(np.zeros((2, 3))))


class TestEngineMechanics:
    def test_backward_requires_scalar(self):
        t = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_constants_track_no_graph(self):
        c = constant(np.ones(3)) * 2.0 + 1.0
        assert not c.requires_grad and c._prev == ()

    def test_grad_accumulates_over_reuse(self):
        t = parameter(np.array(3.0))
        loss = t * t + t * 2.0  # dL/dt = 2t + 2
        loss.backward()
        assert t.grad == pytest.approx(8.0)

    def test_diamond_graph(self):
        x0 = RNG.standard_normal(4)
        check(lambda t: ((t.exp() + t) * (t.exp() - t)).sum(), x0)

    def test_second_backward_resets_grads(self):
        t = parameter(np.array(2.0))
        (t * t).backward()
        first = float(t.grad)
        (t * t).backward()
        assert float(t.grad) == pytest.approx(first)
