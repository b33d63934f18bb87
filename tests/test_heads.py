import math

import numpy as np
import pytest

import skipalign.tensor_losses as tl
from skipalign.autodiff import constant, parameter
from skipalign.config import ConfigError, resolve_config
from skipalign import heads
from skipalign.heads import HeadWeights, compose, log_softmax, negatives, one_hot, two_way
from skipalign.net import ForwardResult
from skipalign.trainer import TrainConfig, freeze_decisions, objective, step_rows
from fd_oracle import finite_diff_grad

RNG = np.random.default_rng(0)


def random_logits(rng, shape=(3, 4)) -> tuple[np.ndarray, np.ndarray]:
    """Random detector (ID, OOD) logit matrices."""
    return rng.standard_normal(shape) * 2, rng.standard_normal(shape) * 2


def logits_from_probs(probs) -> tuple[np.ndarray, np.ndarray]:
    """Detector logits with the given ID probabilities: logit ID, zero OOD logits."""
    p = np.asarray(probs, dtype=np.float64)
    return np.log(p) - np.log1p(-p), np.zeros_like(p)


def consistency(logits, pseudo, accept) -> tuple[float, np.ndarray]:
    """FixMatch consistency as the step takes it: `heads.classifier` on the rows'
    `log_softmax` with the accepted pseudo-labels as targets, the mean over every row;
    returns (value, gradient w.r.t. the logits)."""
    log_p, probs, _ = log_softmax(np.asarray(logits, dtype=np.float64))
    n, k = log_p.shape
    kept = np.asarray(accept, dtype=np.float64)
    losses, grad = heads.classifier(log_p, probs, one_hot(pseudo, k) * kept[:, None], kept / n)
    return losses.sum() / n, grad


def ce(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy: the classifier with every label accepted."""
    return consistency(logits, labels, np.ones(len(labels)))


# The detector losses as means over their rows, with both head gradients.
def ova(log_p_id, log_p_ood, p_id, labels):
    n, k = log_p_id.shape
    value, g = heads.ova(log_p_id, log_p_ood, p_id, one_hot(labels, k), n, 1.0)
    return value, g, -g


def em(log_p_id, log_p_ood, p_id, p_ood):
    n = len(log_p_id)
    value, g = heads.em(log_p_id, log_p_ood, p_id, p_ood, n, 1.0)
    return value, g, -g


def socr(id_logits, id_logits2):
    n = len(id_logits)
    value, g = heads.socr(id_logits, id_logits2, n, 1.0)
    return value, g, -g


def neg(log_p_ood, p_id, selected):
    n = len(p_id)
    value, g = heads.neg(log_p_ood, p_id, selected, n, 1.0)
    return value, g, -g


def unlabeled_rows(weak_cc, strong_cc):
    """The stacked rows of a step without labeled rows, built by hand: both weak
    views carry `weak_cc`, the strong view `strong_cc`."""
    cc = np.concatenate([weak_cc, weak_cc, strong_cc]).astype(np.float64)
    zeros = np.zeros_like(cc)
    return step_rows(ForwardResult(zeros, zeros, cc, zeros, zeros), 0,
                     TrainConfig().gate_temperature)


def fixmatch(weak_probs, strong_probs, tau_pl: float) -> tuple[float, int]:
    """Consistency as training applies it: hard pseudo-labels frozen from the
    weak view; returns (value, accepted count)."""
    cfg = TrainConfig(head=HeadWeights(tau_pl=tau_pl))
    strong = np.log(np.asarray(strong_probs, dtype=np.float64))
    decisions = freeze_decisions(unlabeled_rows(np.log(weak_probs), strong), cfg)
    value, _ = consistency(strong, decisions.pred_class, decisions.pl_accept)
    return value, int(decisions.pl_accept.sum())


def id_probs(id_logits, ood_logits) -> np.ndarray:
    """The detector's per-class ID probability, as the losses, the gate and the OOD
    scores read it."""
    return two_way(id_logits, ood_logits)[2]


def neg_value(logits: tuple[np.ndarray, np.ndarray], eta_neg: float) -> float:
    log_p_id, log_p_ood, p_id, _ = two_way(*logits)
    return neg(log_p_ood, p_id, negatives(log_p_id, np.log(eta_neg)))[0]


class TestOvaOutput:
    """The one-vs-all detector's output read as `two_way`'s p_id: the per-class
    two-way softmax probability of ID."""

    def test_probs_are_complementary(self):
        s_id, s_ood = random_logits(np.random.default_rng(1), (10, 5))
        p = id_probs(s_id, s_ood)
        np.testing.assert_allclose(p, 1 / (1 + np.exp(s_ood - s_id)), atol=1e-12)
        assert np.all(p > 0) and np.all(p < 1)

    def test_extreme_logits_stable(self):
        p = id_probs(np.array([[1000.0, -1000.0]]), np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)

    def test_from_probs_round_trip(self):
        p = np.array([[0.9, 0.2], [0.5, 0.7]])
        s_id, s_ood = logits_from_probs(p)
        np.testing.assert_allclose(id_probs(s_id, s_ood), p, atol=1e-12)
        np.testing.assert_allclose(s_ood, 0.0)


class TestCeLoss:
    def test_perfect_prediction(self):
        assert ce([[0.0, -1000.0, -1000.0]], [0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_binary(self):
        assert ce([[0.0, 0.0]], [0])[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_wrong_side_hand_value(self):
        # probabilities (e, 1) / (e + 1)
        assert ce([[1.0, 0.0]], [1])[0] == pytest.approx(math.log(1 + math.e),
                                                                   abs=1e-12)

    def test_label_out_of_range(self):
        # The config ties the classifier's width to the scenario's label range.
        with pytest.raises(ConfigError, match="net.num_classes"):
            resolve_config({"seed": 0, "net": {"num_classes": 3}})

    def test_zero_probability_floored(self):
        # the true class's probability underflows to zero; log-space keeps it finite
        loss = ce([[-1000.0, 0.0]], [0])[0]
        assert loss == pytest.approx(1000.0, abs=1e-9)


class TestConsistencyLoss:
    def test_nothing_accepted(self):
        loss, accepted = fixmatch([[0.6, 0.4]], [[0.9, 0.1]], tau_pl=0.95)
        assert loss == 0.0 and accepted == 0

    def test_agreeing_views(self):
        loss, accepted = fixmatch([[0.99, 0.01]], [[0.99, 0.01]], tau_pl=0.95)
        assert accepted == 1
        assert loss == pytest.approx(-math.log(0.99), abs=1e-12)

    def test_disagreeing_strong_view(self):
        loss, accepted = fixmatch([[0.99, 0.01]], [[0.5, 0.5]], tau_pl=0.95)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_mean_over_full_batch(self):
        weak = [[0.99, 0.01], [0.6, 0.4]]
        strong = [[0.5, 0.5], [0.5, 0.5]]
        loss, accepted = fixmatch(weak, strong, tau_pl=0.95)
        assert accepted == 1
        assert loss == pytest.approx(math.log(2) / 2, abs=1e-12)


class TestOvaLoss:
    def test_perfect_detector(self):
        logits = logits_from_probs([[1 - 1e-12, 1e-12]])
        assert ova(*two_way(*logits)[:3], [0])[0] == pytest.approx(0.0, abs=1e-9)

    def test_single_class_uniform(self):
        logits = logits_from_probs([[0.5]])
        assert ova(*two_way(*logits)[:3], [0])[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_two_class_hand_value(self):
        logits = logits_from_probs([[0.9, 0.2]])
        expected = -math.log(0.9) - math.log(0.8)
        assert ova(*two_way(*logits)[:3], [0])[0] == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = random_logits(rng)
            labels = rng.integers(0, 4, size=3)
            assert ova(*two_way(*logits)[:3], labels)[0] >= 0


class TestEmLoss:
    def test_zero_entropy_at_vertices(self):
        logits = logits_from_probs([[1 - 1e-15, 1e-15]])
        assert em(*two_way(*logits))[0] == pytest.approx(0.0, abs=1e-12)

    def test_max_entropy_pair(self):
        logits = logits_from_probs([[0.5]])
        assert em(*two_way(*logits))[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        logits = logits_from_probs([[0.9]])
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert em(*two_way(*logits))[0] == pytest.approx(expected, abs=1e-12)

    def test_maximized_at_half(self):
        values = [em(*two_way(*logits_from_probs([[p]])))[0] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert np.argmax(values) == 2

    def test_exact_zero_probability_contributes_zero(self):
        logits = np.array([[1000.0]]), np.array([[-1000.0]])
        assert id_probs(*logits)[0, 0] == 1.0  # the OOD probability is exactly zero
        assert em(*two_way(*logits))[0] == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = random_logits(rng)
            assert em(*two_way(*logits))[0] >= 0


class TestSocrLoss:
    def test_identical_views(self):
        s_id, _ = random_logits(np.random.default_rng(4))
        assert socr(s_id, s_id)[0] == 0.0

    def test_unit_difference(self):
        assert socr(np.array([[1.0]]), np.array([[0.0]]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_two_classes(self):
        assert socr(np.array([[0.5, 0.0]]), np.array([[0.0, 0.5]]))[0] == pytest.approx(
            0.5, abs=1e-12)


class TestNegLoss:
    def test_empty_selection(self):
        assert neg_value(logits_from_probs([[0.7, 0.9]]), eta_neg=0.5) == 0.0

    def test_single_class_hand_value(self):
        assert neg_value(logits_from_probs([[0.5]]), eta_neg=0.6) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_selects_only_low_classes(self):
        assert neg_value(logits_from_probs([[0.1, 0.9]]), eta_neg=0.5) == pytest.approx(
            -math.log(0.9), abs=1e-12)

    def test_eta_validated(self):
        for eta_neg in (0.0, 1.0):
            with pytest.raises(ValueError, match="eta_neg"):
                HeadWeights(eta_neg=eta_neg)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert neg_value(random_logits(rng), 0.3) >= 0


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
        # The training objective itemizes every leaf beside the total; compose gives
        # the composites back from the leaves.
        rng = np.random.default_rng(7)

        # 4 labeled rows and three unlabeled views of 6, every output random.
        cfg = TrainConfig(tau_id=0.4, eta_id=0.3)
        rows = step_rows(ForwardResult(*(rng.standard_normal((22, 2)) for _ in range(5))), 4,
                         cfg.gate_temperature)
        decisions = freeze_decisions(rows, cfg)
        terms, _ = objective(rows, np.array([0, 0, 1, 1]), np.eye(2), decisions, cfg)
        assert list(terms) == ["x", "u", "ova", "em", "socr", "neg", "usna", "ia", "pa",
                               "total"]
        assert compose(terms, cfg.weights_and_slopes[0])["total"] == terms["total"]


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


def tape_value_and_grads(build, *arrays):
    """A tape loss's value and its gradient w.r.t. each input array."""
    leaves = [parameter(np.array(a, dtype=np.float64)) for a in arrays]
    loss = build(*leaves)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves]


def assert_matches_tape(closed_form, tape):
    """Value and every head gradient agree with the tape to 1e-12 relative."""
    value, *grads = closed_form
    tape_value, tape_grads = tape
    assert abs(value - tape_value) <= 1e-12 * abs(tape_value)
    assert len(grads) == len(tape_grads)
    for got, want in zip(grads, tape_grads):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestNumpyTapeParity:
    """Each closed-form loss against its tape twin: value and head gradients."""

    def test_ce_parity(self):
        rng = np.random.default_rng(31)
        logits = rng.standard_normal((6, 4)) * 3
        labels = rng.integers(0, 4, size=6)
        assert_matches_tape(ce(logits, labels),
                            tape_value_and_grads(lambda t: tl.ce_graph(t, labels), logits))

    def test_consistency_parity(self):
        rng = np.random.default_rng(32)
        weak = rng.standard_normal((6, 4))
        strong = rng.standard_normal((6, 4))
        decisions = freeze_decisions(unlabeled_rows(weak, strong),
                                     TrainConfig(head=HeadWeights(tau_pl=0.5)))
        pseudo, accept = decisions.pred_class, decisions.pl_accept
        assert 0 < accept.sum() < 6
        assert_matches_tape(
            consistency(strong, pseudo, accept),
            tape_value_and_grads(lambda t: tl.consistency_graph(t, pseudo, accept), strong))

    def test_ova_em_socr_neg_parity(self):
        rng = np.random.default_rng(33)
        s_id = rng.standard_normal((5, 3)) * 2
        s_ood = rng.standard_normal((5, 3)) * 2
        s_id2 = rng.standard_normal((5, 3)) * 2
        labels = rng.integers(0, 3, size=5)
        log_p_id, log_p_ood, p_id, p_ood = two_way(s_id, s_ood)
        assert_matches_tape(ova(log_p_id, log_p_ood, p_id, labels), tape_value_and_grads(
            lambda a, b: tl.ova_graph(a, b, labels), s_id, s_ood))
        assert_matches_tape(em(log_p_id, log_p_ood, p_id, p_ood),
                            tape_value_and_grads(tl.em_graph, s_id, s_ood))
        assert_matches_tape(socr(s_id, s_id2), tape_value_and_grads(tl.socr_graph, s_id, s_id2))
        selected = negatives(log_p_id, np.log(0.4))
        np.testing.assert_array_equal(selected, id_probs(s_id, s_ood) < 0.4)
        # the mask is taken from the same log-probabilities the loss builds
        log_p_id = tl._two_way_log_probs(constant(s_id), constant(s_ood))[0].data
        np.testing.assert_array_equal(selected, log_p_id < np.log(0.4))
        assert 0 < selected.sum() < selected.size
        assert_matches_tape(neg(log_p_ood, p_id, selected), tape_value_and_grads(
            lambda a, b: tl.neg_graph(a, b, selected), s_id, s_ood))
