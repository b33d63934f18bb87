import math

import numpy as np
import pytest

import skipalign.tensor_losses as tl
from skipalign.autodiff import constant, parameter
from skipalign.heads import (OvaOutput, ce_loss, compose, consistency_loss, em_loss,
                             neg_loss, ova_loss, socr_loss)
from skipalign.linalg import finite_diff_grad, softmax_rows
from skipalign.net import ForwardTensors
from skipalign.trainer import TrainConfig, freeze_decisions, objective

RNG = np.random.default_rng(0)


def random_ova(rng, shape=(3, 4)) -> OvaOutput:
    return OvaOutput.from_logits(rng.standard_normal(shape) * 2,
                                 rng.standard_normal(shape) * 2)


class TestOvaOutput:
    def test_probs_are_complementary(self):
        out = random_ova(np.random.default_rng(1), (10, 5))
        np.testing.assert_allclose(out.id_probs + out.ood_probs, 1.0, atol=1e-12)
        assert np.all(out.id_probs > 0) and np.all(out.ood_probs > 0)

    def test_extreme_logits_stable(self):
        out = OvaOutput.from_logits([[1000.0, -1000.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(out.id_probs, [[1.0, 0.0]], atol=1e-300)

    def test_from_probs_round_trip(self):
        p = np.array([[0.9, 0.2], [0.5, 0.7]])
        out = OvaOutput.from_probs(p)
        np.testing.assert_allclose(out.id_probs, p, atol=1e-12)
        np.testing.assert_allclose(out.ood_probs, 1 - p, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            OvaOutput.from_logits([[1.0]], [[1.0, 2.0]])


class TestCeLoss:
    def test_perfect_prediction(self):
        assert ce_loss([[1.0, 0.0, 0.0]], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_binary(self):
        assert ce_loss([[0.5, 0.5]], [0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_wrong_side_hand_value(self):
        e = math.e
        p = [[e / (e + 1), 1 / (e + 1)]]
        assert ce_loss(p, [1]) == pytest.approx(math.log(1 + e), abs=1e-5)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ce_loss([[0.5, 0.5]], [2])

    def test_zero_probability_floored(self):
        loss = ce_loss([[0.0, 1.0]], [0])
        assert np.isfinite(loss)


class TestConsistencyLoss:
    def test_nothing_accepted(self):
        loss, accepted = consistency_loss([[0.6, 0.4]], [[0.9, 0.1]], tau_pl=0.95)
        assert loss == 0.0 and accepted == 0

    def test_agreeing_views(self):
        loss, accepted = consistency_loss([[0.99, 0.01]], [[0.99, 0.01]], tau_pl=0.95)
        assert accepted == 1
        assert loss == pytest.approx(-math.log(0.99), abs=1e-12)

    def test_disagreeing_strong_view(self):
        loss, accepted = consistency_loss([[0.99, 0.01]], [[0.5, 0.5]], tau_pl=0.95)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_mean_over_full_batch(self):
        weak = [[0.99, 0.01], [0.6, 0.4]]
        strong = [[0.5, 0.5], [0.5, 0.5]]
        loss, accepted = consistency_loss(weak, strong, tau_pl=0.95)
        assert accepted == 1
        assert loss == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            consistency_loss([[0.9, 0.1]], [[0.9, 0.1, 0.0]], 0.5)


class TestOvaLoss:
    def test_perfect_detector(self):
        out = OvaOutput.from_probs(np.array([[1 - 1e-12, 1e-12]]))
        assert ova_loss(out, [0]) == pytest.approx(0.0, abs=1e-9)

    def test_single_class_uniform(self):
        out = OvaOutput.from_probs(np.array([[0.5]]))
        assert ova_loss(out, [0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_class_hand_value(self):
        out = OvaOutput.from_probs(np.array([[0.9, 0.2]]))
        expected = -math.log(0.9) - math.log(0.8)
        assert ova_loss(out, [0]) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = random_ova(rng)
            labels = rng.integers(0, 4, size=3)
            assert ova_loss(out, labels) >= 0


class TestEmLoss:
    def test_zero_entropy_at_vertices(self):
        out = OvaOutput.from_probs(np.array([[1 - 1e-15, 1e-15]]))
        assert em_loss(out) == pytest.approx(0.0, abs=1e-12)

    def test_max_entropy_pair(self):
        out = OvaOutput.from_probs(np.array([[0.5]]))
        assert em_loss(out) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        out = OvaOutput.from_probs(np.array([[0.9]]))
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert em_loss(out) == pytest.approx(expected, abs=1e-12)

    def test_maximized_at_half(self):
        values = [em_loss(OvaOutput.from_probs(np.array([[p]])))
                  for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert np.argmax(values) == 2

    def test_exact_zero_probability_contributes_zero(self):
        out = OvaOutput.from_logits([[1000.0]], [[-1000.0]])
        assert out.ood_probs[0, 0] == 0.0
        assert em_loss(out) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert em_loss(random_ova(rng)) >= 0


class TestSocrLoss:
    def test_identical_views(self):
        out = random_ova(np.random.default_rng(4))
        assert socr_loss(out, out) == 0.0

    def test_unit_difference(self):
        a = OvaOutput.from_logits([[1.0]], [[0.0]])
        b = OvaOutput.from_logits([[0.0]], [[0.0]])
        assert socr_loss(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_two_classes(self):
        a = OvaOutput.from_logits([[0.5, 0.0]], [[0.0, 0.0]])
        b = OvaOutput.from_logits([[0.0, 0.5]], [[0.0, 0.0]])
        assert socr_loss(a, b) == pytest.approx(0.5, abs=1e-12)


class TestNegLoss:
    def test_empty_selection(self):
        out = OvaOutput.from_probs(np.array([[0.7, 0.9]]))
        assert neg_loss(out, eta_neg=0.5) == 0.0

    def test_single_class_hand_value(self):
        out = OvaOutput.from_probs(np.array([[0.5]]))
        assert neg_loss(out, eta_neg=0.6) == pytest.approx(math.log(2), abs=1e-12)

    def test_selects_only_low_classes(self):
        out = OvaOutput.from_probs(np.array([[0.1, 0.9]]))
        assert neg_loss(out, eta_neg=0.5) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_eta_validated(self):
        out = OvaOutput.from_probs(np.array([[0.5]]))
        with pytest.raises(ValueError):
            neg_loss(out, eta_neg=0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert neg_loss(random_ova(rng), 0.3) >= 0


WEIGHT_NAMES = ("lambda_u", "lambda_em", "lambda_socr", "lambda_neg", "lambda_cc",
                "lambda_od", "lambda_sna", "lambda_usna", "lambda_ia", "lambda_pa")


def weights(**nonzero) -> dict:
    return {name: nonzero.get(name, 0.0) for name in WEIGHT_NAMES}


def leaves(x=1.0, u=2.0, ova=3.0, em=4.0, socr=5.0, neg=6.0, usna=7.0, ia=0.0, pa=0.0):
    return {"x": x, "u": u, "ova": ova, "em": em, "socr": socr, "neg": neg,
            "usna": usna, "ia": ia, "pa": pa}


class TestTotalLoss:
    """The weighted total as `compose` forms it from the leaf terms."""

    def test_all_zero_weights(self):
        assert compose(leaves(), weights())["total"] == 0.0

    def test_reduces_to_ce(self):
        w = weights(lambda_cc=1, lambda_usna=1)
        assert compose(leaves(x=0.42, u=9.0), w)["total"] == pytest.approx(0.42)

    def test_weighted_sum_arithmetic(self):
        # composite terms (1, 2, 3) weighted (0.5, 0.25, 0.01)
        w = weights(lambda_cc=0.5, lambda_od=0.25, lambda_sna=0.01, lambda_usna=1)
        out = compose(leaves(x=1.0, u=0.0, ova=2.0, em=0.0, socr=0.0, neg=0.0, usna=3.0), w)
        assert (out["cc"], out["od"], out["sna"]) == (1.0, 2.0, 3.0)
        assert out["total"] == pytest.approx(1.03, abs=1e-12)

    def test_itemizes_seven_leaves(self):
        # The training objective itemizes every leaf beside the composites.
        rng = np.random.default_rng(7)

        def view(rows):
            return ForwardTensors(*(constant(rng.standard_normal((rows, 2)))
                                    for _ in range(5)))

        outputs = {"x_w": view(4), "u_w": view(6), "u_w2": view(6), "u_s": view(6)}
        cfg = TrainConfig(tau_id=0.4, eta_id=0.3)
        decisions = freeze_decisions(outputs["u_w"], outputs["u_s"], cfg)
        terms, w = objective(outputs, np.array([0, 0, 1, 1]), np.eye(2), decisions, cfg)
        assert list(terms) == ["x", "u", "ova", "em", "socr", "neg", "usna", "ia", "pa",
                               "sna", "cc", "od", "total"]
        values = {name: term.item() for name, term in terms.items()}
        assert compose(values, w) == {name: values[name]
                                      for name in ("sna", "cc", "od", "total")}


class TestLogitGradientsAgainstOracle:
    """Every head loss, differentiated through its logits on the tape,
    must match central finite differences."""

    def _check(self, build, shape, seed, atol=2e-7):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(shape) * 2

        t = parameter(x0.copy())
        build(t).backward()
        tape = t.grad.copy()

        def value(flat):
            return build(constant(flat.reshape(shape))).item()

        numeric = finite_diff_grad(value, x0.ravel()).reshape(shape)
        rel = np.linalg.norm(tape - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-6

    def test_ce(self):
        labels = np.array([0, 2, 1])
        self._check(lambda t: tl.ce_graph(t, labels), (3, 3), seed=21)

    def test_consistency(self):
        pseudo = np.array([1, 0, 2, 1])
        accept = np.array([True, False, True, True])
        self._check(lambda t: tl.consistency_graph(t, pseudo, accept), (4, 3), seed=22)

    def test_ova(self):
        labels = np.array([0, 1, 3])
        rng = np.random.default_rng(23)
        ood = constant(rng.standard_normal((3, 4)))
        self._check(lambda t: tl.ova_graph(t, ood, labels), (3, 4), seed=24)

    def test_em(self):
        rng = np.random.default_rng(25)
        ood = constant(rng.standard_normal((3, 4)))
        self._check(lambda t: tl.em_graph(t, ood), (3, 4), seed=26)

    def test_socr(self):
        rng = np.random.default_rng(27)
        other = constant(rng.standard_normal((3, 4)))
        self._check(lambda t: tl.socr_graph(t, other), (3, 4), seed=28)

    def test_neg(self):
        rng = np.random.default_rng(29)
        ood = constant(rng.standard_normal((3, 4)))
        frozen = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
        frozen[0] = 1.0  # at least one selected row
        self._check(lambda t: tl.neg_graph(t, ood, frozen), (3, 4), seed=30)


class TestNumpyTapeParity:
    """The tape builders must reproduce the reference loss values."""

    def test_ce_parity(self):
        rng = np.random.default_rng(31)
        logits = rng.standard_normal((6, 4)) * 3
        labels = rng.integers(0, 4, size=6)
        reference = ce_loss(softmax_rows(logits), labels)
        assert tl.ce_graph(constant(logits), labels).item() == pytest.approx(
            reference, abs=1e-12)

    def test_consistency_parity(self):
        rng = np.random.default_rng(32)
        weak = rng.standard_normal((6, 4))
        strong = rng.standard_normal((6, 4))
        weak_probs = softmax_rows(weak)
        reference, accepted = consistency_loss(weak_probs, softmax_rows(strong), 0.3)
        pseudo = np.argmax(weak_probs, axis=1)
        accept = weak_probs[np.arange(6), pseudo] > 0.3
        assert int(accept.sum()) == accepted
        assert tl.consistency_graph(constant(strong), pseudo, accept).item() == \
            pytest.approx(reference, abs=1e-12)

    def test_ova_em_socr_neg_parity(self):
        rng = np.random.default_rng(33)
        s_id = rng.standard_normal((5, 3)) * 2
        s_ood = rng.standard_normal((5, 3)) * 2
        s_id2 = rng.standard_normal((5, 3)) * 2
        s_ood2 = rng.standard_normal((5, 3)) * 2
        out = OvaOutput.from_logits(s_id, s_ood)
        out2 = OvaOutput.from_logits(s_id2, s_ood2)
        labels = rng.integers(0, 3, size=5)
        ti, to = constant(s_id), constant(s_ood)
        ti2 = constant(s_id2)
        assert tl.ova_graph(ti, to, labels).item() == pytest.approx(
            ova_loss(out, labels), abs=1e-12)
        assert tl.em_graph(ti, to).item() == pytest.approx(em_loss(out), abs=1e-12)
        assert tl.socr_graph(ti, ti2).item() == pytest.approx(
            socr_loss(out, out2), abs=1e-12)
        selected = tl.negatives(s_id, s_ood, 0.4)
        np.testing.assert_array_equal(selected, out.id_probs < 0.4)
        # the mask is taken from the same log-probabilities the loss builds
        log_p_id = tl._two_way_log_probs(ti, to)[0].data
        np.testing.assert_array_equal(selected, log_p_id < np.log(0.4))
        assert tl.neg_graph(ti, to, selected).item() == pytest.approx(
            neg_loss(out, 0.4), abs=1e-12)
