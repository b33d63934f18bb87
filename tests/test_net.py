import dataclasses

import numpy as np
import pytest

from skipalign.autodiff import constant
from skipalign.heads import classifier, log_softmax, one_hot, two_way
from skipalign.net import (ForwardResult, NetSpec, ParamState, backward, forward,
                           forward_tensors, init_params, layout, load_checkpoint, param_count,
                           save_checkpoint, sgd_step)

TINY = NetSpec(input_dim=3, backbone_widths=(4,), feature_dim=3, proj_hidden=3,
               embed_dim=2, num_classes=2, seed=0)
HEADS = ("embeddings", "cc_logits", "id_logits", "ood_logits")


def head_grads(out, **given):
    """The four head gradients a `backward` closure returns: given ones, else zero."""
    return {head: given.get(head, np.zeros_like(getattr(out, head))) for head in HEADS}


class TestSpecAndInit:
    def test_param_count_matches_layout(self):
        total = sum(int(np.prod(shape)) for _, shape in layout(TINY))
        assert param_count(TINY) == total
        assert param_count(TINY) <= 500

    def test_init_deterministic(self):
        a = init_params(TINY)
        b = init_params(TINY)
        assert np.array_equal(a.flat, b.flat)
        c = init_params(dataclasses.replace(TINY, seed=1))
        assert not np.array_equal(a.flat, c.flat)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            NetSpec(input_dim=0)

    def test_wrong_flat_length_rejected(self):
        with pytest.raises(ValueError):
            ParamState(spec=TINY, flat=np.zeros(3))


class TestForward:
    def test_zero_parameters_give_uniform_classifier(self):
        params = ParamState(spec=TINY, flat=np.zeros(param_count(TINY)))
        out = forward(params, np.random.default_rng(0).standard_normal((5, 3)))
        np.testing.assert_allclose(out.cc_logits, 0.0)
        np.testing.assert_allclose(log_softmax(out.cc_logits)[1], 0.5, atol=1e-15)
        np.testing.assert_allclose(two_way(out.id_logits, out.ood_logits)[2], 0.5, atol=1e-15)

    def test_hand_built_single_layer_products(self):
        # No hidden widths: the backbone is one 2x2 linear map. The projection's
        # two layers are identities, and its ReLU passes the positive features.
        spec = NetSpec(input_dim=2, backbone_widths=(), feature_dim=2, proj_hidden=2,
                       embed_dim=2, num_classes=2, seed=0)
        params = ParamState(spec=spec, flat=np.zeros(param_count(spec)))
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        params.views["backbone0.W"][:] = w
        params.views["proj0.W"][:] = np.eye(2)
        params.views["proj1.W"][:] = np.eye(2)
        params.views["cc.W"][:] = np.eye(2)
        x = np.array([[1.0, 1.0]])
        out = forward(params, x)
        np.testing.assert_allclose(out.features, x @ w, atol=1e-15)
        np.testing.assert_allclose(out.embeddings, x @ w, atol=1e-15)
        np.testing.assert_allclose(out.cc_logits, x @ w, atol=1e-15)

    def test_identical_rows_identical_outputs(self):
        params = init_params(TINY)
        x = np.tile(np.random.default_rng(1).standard_normal(3), (2, 1))
        out = forward(params, x)
        assert np.array_equal(out.features[0], out.features[1])
        assert np.array_equal(out.embeddings[0], out.embeddings[1])

    def test_tape_forward_gives_the_same_five_outputs(self):
        params = init_params(TINY)
        x = np.random.default_rng(2).standard_normal((4, 3))
        tensors = {name: constant(view) for name, view in params.views.items()}
        tape = forward_tensors(TINY, tensors, x)
        out = forward(params, x)
        names = [f.name for f in dataclasses.fields(ForwardResult)]
        assert names == ["features", "embeddings", "cc_logits", "id_logits", "ood_logits"]
        assert isinstance(tape, ForwardResult)
        for name in names:
            assert np.array_equal(getattr(tape, name).data, getattr(out, name))

    def test_shape_validation(self):
        params = init_params(TINY)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)))


class TestBackward:
    def test_constant_loss_zero_gradient(self):
        params = init_params(TINY)
        x = np.random.default_rng(3).standard_normal((3, 3))
        grads = backward(params, x, lambda out: (2.5, head_grads(out)))
        np.testing.assert_allclose(grads, 0.0)

    def test_full_objective_matches_finite_differences(self):
        from skipalign.oracles import full_model_gradient_check
        from tape_oracle import full_model_tape_check
        # Seed 1: criterion 1 checks seed 0.
        rel_fd, n_params = full_model_gradient_check(seed=1)
        assert n_params <= 500
        assert rel_fd <= 1e-5 and full_model_tape_check(seed=1) <= 1e-12

    def test_non_finite_loss_rejected(self):
        params = init_params(TINY)
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="non-finite"):
            backward(params, x, lambda out: (float("nan"), head_grads(out)))

    def test_nan_input_flagged_by_the_tape_forward_too(self):
        # The oracle's ReLU must propagate NaN as the training forward does.
        params = init_params(TINY)
        x = np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
        tensors = {name: constant(view) for name, view in params.views.items()}
        match = "non-finite activation in layer 'backbone'"
        with pytest.raises(ValueError, match=match):
            backward(params, x, lambda out: (0.0, head_grads(out)))
        with pytest.raises(ValueError, match=match):
            forward(params, x)
        with pytest.raises(ValueError, match=match):
            forward_tensors(TINY, tensors, x)


class TestSgdStep:
    def test_zero_learning_rate_keeps_parameters(self):
        params = init_params(TINY)
        before = params.flat.copy()
        grads = np.ones_like(params.flat)
        sgd_step(params, grads, lr=0.0, momentum=0.0, weight_decay=0.0,
                 velocity=np.zeros_like(params.flat))
        assert np.array_equal(params.flat, before)

    def test_plain_step_arithmetic(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.ones(param_count(spec)))
        grads = np.full_like(params.flat, 2.0)
        sgd_step(params, grads, lr=0.1, momentum=0.0, weight_decay=0.0,
                 velocity=np.zeros_like(params.flat))
        np.testing.assert_allclose(params.flat, 0.8, atol=1e-15)

    def test_momentum_recursion_hand_values(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.zeros(param_count(spec)))
        grads = np.ones_like(params.flat)
        velocity = np.zeros_like(params.flat)
        sgd_step(params, grads, lr=0.1, momentum=0.9, weight_decay=0.0, velocity=velocity)
        after_one = params.flat.copy()  # the second step updates params in place
        sgd_step(params, grads, lr=0.1, momentum=0.9, weight_decay=0.0, velocity=velocity)
        np.testing.assert_allclose(after_one, -0.1, atol=1e-15)
        np.testing.assert_allclose(params.flat, -0.29, atol=1e-15)

    def test_weight_decay_added_to_gradient(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.full(param_count(spec), 2.0))
        sgd_step(params, np.zeros_like(params.flat), lr=0.1, momentum=0.0, weight_decay=0.5,
                 velocity=np.zeros_like(params.flat))
        np.testing.assert_allclose(params.flat, 2.0 - 0.1 * (0.5 * 2.0), atol=1e-15)


class TestInPlace:
    def test_steps_update_the_given_arrays_bit_for_bit(self):
        # Five in-place steps against the fresh-array formula, one operation at a time.
        rng = np.random.default_rng(4)
        params = init_params(TINY)
        flat, velocity = params.flat, np.zeros_like(params.flat)
        want, want_v = flat.copy(), velocity.copy()
        for lr in (0.3, 0.1, 0.05, 1e-3, 0.0):
            grads = rng.standard_normal(flat.shape)
            grads_before = grads.copy()
            sgd_step(params, grads, lr=lr, momentum=0.9, weight_decay=5e-4, velocity=velocity)
            want_v = 0.9 * want_v + (grads + 5e-4 * want)
            want = want - lr * want_v
            assert params.flat is flat
            assert flat.tobytes() == want.tobytes()
            assert velocity.tobytes() == want_v.tobytes()
            assert grads.tobytes() == grads_before.tobytes()

    def test_non_finite_step_rejected(self):
        params = init_params(TINY)
        with pytest.raises(ValueError, match="parameters have non-finite entries"):
            sgd_step(params, np.ones_like(params.flat), lr=float("nan"), momentum=0.0,
                     weight_decay=0.0, velocity=np.zeros_like(params.flat))

    def test_forward_and_backward_leave_parameters_and_inputs_alone(self):
        params = init_params(TINY)
        x = np.random.default_rng(6).standard_normal((5, 3))
        flat_bytes, x_bytes = params.flat.tobytes(), x.tobytes()
        forward(params, x)

        def closure(out):
            log_p, probs, _ = log_softmax(out.cc_logits)
            losses, grad = classifier(log_p, probs, one_hot([0, 1, 1, 0, 1], 2), np.full(5, 0.2))
            return losses.mean(), head_grads(out, cc_logits=grad, embeddings=out.embeddings)

        backward(params, x, closure)
        assert params.flat.tobytes() == flat_bytes
        assert x.tobytes() == x_bytes

    def test_backward_writes_one_gradient_buffer(self):
        # Each call overwrites the vector of params.grad and returns it.
        params = init_params(TINY)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))

        def closure(out):
            return 0.0, head_grads(out, cc_logits=np.ones((4, 2)))

        first = backward(params, x, closure)
        copy = first.copy()
        second = backward(params, 2 * x, closure)
        assert second is first is params.grad[0]
        assert not np.array_equal(second, copy)
        fresh = backward(init_params(TINY), 2 * x, closure)
        assert fresh is not second and fresh.tobytes() == second.tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(TINY)
        params = ParamState(spec=TINY, flat=params.flat * np.pi)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == TINY
        assert np.array_equal(loaded.flat, params.flat)

    def test_version_checked(self, tmp_path):
        import json
        params = init_params(TINY)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestDeterminism:
    def test_identical_training_sequences_are_bitwise_equal(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        labels = np.array([0, 1, 0, 1])

        def closure(out):
            log_p, probs, _ = log_softmax(out.cc_logits)
            losses, grad = classifier(log_p, probs, one_hot(labels, 2), np.full(4, 0.25))
            return losses.mean(), head_grads(out, cc_logits=grad)

        def run():
            params = init_params(TINY)
            velocity = np.zeros_like(params.flat)
            for _ in range(5):
                grads = backward(params, x, closure)
                sgd_step(params, grads, lr=0.05, momentum=0.9, weight_decay=1e-4,
                         velocity=velocity)
            return params

        a, b = run(), run()
        assert np.array_equal(a.flat, b.flat)
