import numpy as np
import pytest

from skipalign.autodiff import constant
from skipalign.heads import ce
from skipalign.linalg import softmax_rows
from skipalign.net import (NetSpec, ParamState, backward, forward, forward_tensors,
                           init_params, layout, load_checkpoint, param_count,
                           save_checkpoint, sgd_step)

TINY = NetSpec(input_dim=3, backbone_widths=(4,), feature_dim=3, proj_hidden=3,
               embed_dim=2, num_classes=2, seed=0)


class TestSpecAndInit:
    def test_param_count_matches_layout(self):
        total = sum(int(np.prod(shape)) for _, shape in layout(TINY))
        assert param_count(TINY) == total
        assert param_count(TINY) <= 500

    def test_init_deterministic(self):
        a = init_params(TINY)
        b = init_params(TINY)
        assert np.array_equal(a.flat, b.flat)
        c = init_params(NetSpec(**{**TINY.__dict__, "seed": 1}))
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
        np.testing.assert_allclose(softmax_rows(out.cc_logits), 0.5, atol=1e-15)
        np.testing.assert_allclose(out.ova.id_probs, 0.5, atol=1e-15)

    def test_hand_built_single_layer_products(self):
        # No hidden widths: the backbone is one 2x2 linear map. The projection's
        # two layers are identities, and its ReLU passes the positive features.
        spec = NetSpec(input_dim=2, backbone_widths=(), feature_dim=2, proj_hidden=2,
                       embed_dim=2, num_classes=2, seed=0)
        params = ParamState(spec=spec, flat=np.zeros(param_count(spec)))
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        params.view("backbone0.W")[:] = w
        params.view("proj0.W")[:] = np.eye(2)
        params.view("proj1.W")[:] = np.eye(2)
        params.view("cc.W")[:] = np.eye(2)
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

    def test_feature_norm_hook(self):
        params = init_params(TINY)
        out = forward(params, np.random.default_rng(2).standard_normal((4, 3)))
        np.testing.assert_allclose(out.feature_norms,
                                   np.linalg.norm(out.features, axis=1), atol=1e-15)

    def test_shape_validation(self):
        params = init_params(TINY)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)))


class TestBackward:
    def test_constant_loss_zero_gradient(self):
        params = init_params(TINY)
        x = np.random.default_rng(3).standard_normal((3, 3))
        grads = backward(params, {"x": x}, lambda outs: (2.5, {}))
        np.testing.assert_allclose(grads, 0.0)

    def test_full_objective_matches_finite_differences(self):
        from skipalign.oracles import full_model_gradient_check
        rel_fd, rel_tape, n_params = full_model_gradient_check(seed=0)
        assert n_params <= 500
        assert rel_fd <= 1e-5 and rel_tape <= 1e-12

    def test_non_finite_loss_rejected(self):
        params = init_params(TINY)
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="non-finite"):
            backward(params, {"x": x}, lambda outs: (float("nan"), {}))

    def test_nan_input_flagged_by_the_tape_forward_too(self):
        # The oracle's ReLU must propagate NaN as the training forward does.
        params = init_params(TINY)
        x = np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
        tensors = {name: constant(params.view(name)) for name in params.names()}
        match = "non-finite activation in layer 'backbone'"
        with pytest.raises(ValueError, match=match):
            backward(params, {"x": x}, lambda outs: (0.0, {}))
        with pytest.raises(ValueError, match=match):
            forward_tensors(TINY, tensors, x)


class TestSgdStep:
    def test_zero_learning_rate_keeps_parameters(self):
        params = init_params(TINY)
        grads = np.ones_like(params.flat)
        new, _ = sgd_step(params, grads, lr=0.0)
        assert np.array_equal(new.flat, params.flat)
        assert new.step == params.step + 1

    def test_plain_step_arithmetic(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.ones(param_count(spec)))
        grads = np.full_like(params.flat, 2.0)
        new, _ = sgd_step(params, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(new.flat, 0.8, atol=1e-15)

    def test_momentum_recursion_hand_values(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.zeros(param_count(spec)))
        grads = np.ones_like(params.flat)
        p1, v = sgd_step(params, grads, lr=0.1, momentum=0.9)
        p2, _ = sgd_step(p1, grads, lr=0.1, momentum=0.9, velocity=v)
        np.testing.assert_allclose(p1.flat, -0.1, atol=1e-15)
        np.testing.assert_allclose(p2.flat, -0.29, atol=1e-15)

    def test_weight_decay_added_to_gradient(self):
        spec = NetSpec(input_dim=1, backbone_widths=(), feature_dim=1, proj_hidden=1,
                       embed_dim=1, num_classes=1, seed=0)
        params = ParamState(spec=spec, flat=np.full(param_count(spec), 2.0))
        new, _ = sgd_step(params, np.zeros_like(params.flat), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(new.flat, 2.0 - 0.1 * (0.5 * 2.0), atol=1e-15)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(TINY)
        params = ParamState(spec=TINY, flat=params.flat * np.pi, step=17)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == TINY
        assert loaded.step == 17
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

        def closure(outs):
            value, grad = ce(outs["x"].cc_logits, labels)
            return value, {"x": {"cc_logits": grad}}

        def run():
            params = init_params(TINY)
            velocity = None
            for _ in range(5):
                grads = backward(params, {"x": x}, closure)
                params, velocity = sgd_step(params, grads, lr=0.05, momentum=0.9,
                                            weight_decay=1e-4, velocity=velocity)
            return params

        a, b = run(), run()
        assert np.array_equal(a.flat, b.flat)
        assert a.step == b.step == 5
