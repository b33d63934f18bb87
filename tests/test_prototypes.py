import math

import numpy as np
import pytest

from skipalign.heads import normalize
from skipalign.prototypes import EmbeddingBatch, refresh


def accepted(vectors, pred, phi=None):
    """The rows a gate with mask phi (default: all open) passes to refresh."""
    pred = np.asarray(pred, dtype=np.int64)
    keep = np.ones(pred.size, dtype=bool) if phi is None else np.asarray(phi) == 1
    return EmbeddingBatch(np.asarray(vectors)[keep], labels=pred[keep])


def labeled_batch(rng, per_class=4, k=2, dim=3):
    vectors = rng.standard_normal((per_class * k, dim))
    labels = np.repeat(np.arange(k), per_class)
    return EmbeddingBatch(vectors, labels=labels)


class TestRefreshWeights:
    def test_hand_evaluated_weighting(self):
        # gamma=2, n_l=4, r_u=0.5, n_u=8: weights 8 and 4, i.e. (2/3, 1/3).
        labeled = EmbeddingBatch(np.tile([[1.0, 0.0]], (4, 1)), labels=np.zeros(4, dtype=int))
        unlabeled = accepted(np.tile([[0.0, 1.0]], (8, 1)), np.zeros(8, dtype=int))
        protos = refresh(labeled, unlabeled, gamma=2.0, r_u=0.5, num_classes=1)
        np.testing.assert_allclose(protos.mu[0], [2 / 3, 1 / 3], atol=1e-15)
        assert protos.n_labeled[0] == 4 and protos.n_unlabeled[0] == 8

    def test_r_u_zero_reduces_to_labeled_means_bitwise(self):
        rng = np.random.default_rng(1)
        labeled = labeled_batch(rng)
        unlabeled = accepted(rng.standard_normal((6, 3)), rng.integers(0, 2, 6))
        protos = refresh(labeled, unlabeled, gamma=2.0, r_u=0.0, num_classes=2)
        assert np.array_equal(protos.mu, protos.mu_labeled)

    def test_empty_unlabeled_class_keeps_labeled_mean_bitwise(self):
        rng = np.random.default_rng(2)
        labeled = labeled_batch(rng)
        # all contributors predicted as class 0; class 1 has none
        unlabeled = accepted(rng.standard_normal((5, 3)), np.zeros(5, dtype=int))
        protos = refresh(labeled, unlabeled, gamma=1.0, r_u=0.5, num_classes=2)
        assert np.array_equal(protos.mu[1], protos.mu_labeled[1])
        assert not np.array_equal(protos.mu[0], protos.mu_labeled[0])

    def test_gated_out_rows_do_not_contribute(self):
        rng = np.random.default_rng(3)
        labeled = labeled_batch(rng)
        # a closed gate accepts no rows
        none_accepted = accepted(rng.standard_normal((6, 3)), np.zeros(6, dtype=int),
                                 phi=np.zeros(6, dtype=int))
        assert none_accepted.size == 0
        all_closed = refresh(labeled, none_accepted, gamma=2.0, r_u=0.7, num_classes=2)
        labeled_only = refresh(labeled, None, gamma=2.0, r_u=0.0, num_classes=2)
        assert np.array_equal(all_closed.mu, labeled_only.mu)

    def test_num_classes_parameter_detects_missing_tail_class(self):
        batch = EmbeddingBatch(np.ones((2, 2)), labels=np.array([0, 0]))
        with pytest.raises(TypeError, match="num_classes"):  # no guess from the labels
            refresh(batch, None, 1.0, 0.0)


class TestInvariants:
    def test_convexity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            labeled = labeled_batch(rng, per_class=3, k=3, dim=4)
            unlabeled = accepted(rng.standard_normal((9, 4)), rng.integers(0, 3, 9))
            protos = refresh(labeled, unlabeled,
                             gamma=rng.uniform(0.5, 4), r_u=rng.uniform(0, 1), num_classes=3)
            for k in range(3):
                hi = max(np.linalg.norm(protos.mu_labeled[k]),
                         np.linalg.norm(protos.mu_unlabeled[k]))
                assert np.linalg.norm(protos.mu[k]) <= hi + 1e-12
                # mu lies on the segment: mu - mu_l parallel to mu_u - mu_l
                if protos.n_unlabeled[k] > 0:
                    d1 = protos.mu[k] - protos.mu_labeled[k]
                    d2 = protos.mu_unlabeled[k] - protos.mu_labeled[k]
                    cross = d1 - (np.dot(d1, d2) / max(np.dot(d2, d2), 1e-30)) * d2
                    assert np.linalg.norm(cross) <= 1e-10

    def test_monotone_influence_of_r_u(self):
        rng = np.random.default_rng(5)
        labeled = labeled_batch(rng, per_class=4, k=2, dim=3)
        unlabeled = accepted(rng.standard_normal((10, 3)) + 2.0, rng.integers(0, 2, 10))
        grid = np.linspace(0.0, 1.0, 11)
        prev_weight = -1.0
        for r_u in grid:
            protos = refresh(labeled, unlabeled, gamma=2.0, r_u=float(r_u), num_classes=2)
            for k in range(2):
                if protos.n_unlabeled[k] == 0:
                    continue
                w_l = 2.0 * protos.n_labeled[k]
                w_u = r_u * protos.n_unlabeled[k]
                weight = w_u / (w_l + w_u)
                # distance toward the unlabeled mean grows with r_u
                d2 = protos.mu_unlabeled[k] - protos.mu_labeled[k]
                t = np.dot(protos.mu[k] - protos.mu_labeled[k], d2) / np.dot(d2, d2)
                assert t == pytest.approx(weight, abs=1e-12)
            if r_u > 0:
                assert weight > prev_weight
            prev_weight = weight

    def test_all_zero_mask_equals_r_u_zero(self):
        rng = np.random.default_rng(6)
        labeled = labeled_batch(rng)
        vectors = rng.standard_normal((7, 3))
        pred = np.zeros(7, dtype=int)
        # a closed gate accepts no rows
        a = refresh(labeled, accepted(vectors, pred, phi=np.zeros(7, dtype=int)),
                    gamma=1.5, r_u=0.8, num_classes=2)
        b = refresh(labeled, accepted(vectors, pred), gamma=1.5, r_u=0.0, num_classes=2)
        assert np.array_equal(a.mu, b.mu)


class TestInitialPrototypes:
    def test_equals_labeled_means(self):
        rng = np.random.default_rng(7)
        labeled = labeled_batch(rng)
        protos = refresh(labeled, None, gamma=2.0, r_u=0.0, num_classes=2)
        for k in range(2):
            np.testing.assert_allclose(
                protos.mu[k], labeled.vectors[labeled.labels == k].mean(axis=0),
                atol=1e-15)
        assert not protos.n_unlabeled.any() and not protos.mu_unlabeled.any()


def cosines(z, means) -> np.ndarray:
    """(B, K) cosine of every embedding against every prototype, as `evaluate` takes it
    from the unit rows of the means."""
    return normalize(np.asarray(z, dtype=np.float64))[0] @ normalize(means)[0].T


class TestSimilarityProfile:
    def test_prototype_itself_scores_one(self):
        means = np.array([[2.0, 0.0], [0.0, 3.0]])
        sims = cosines([[4.0, 0.0]], means)
        assert sims[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_embedding_scores_zero(self):
        means = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sims = cosines([[0.0, 0.0, 5.0]], means)
        np.testing.assert_allclose(sims, 0.0, atol=1e-12)

    def test_diagonal_mix_hand_value(self):
        means = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[1.0, 1.0]])
        sims = cosines(z, means)
        np.testing.assert_allclose(sims, 1 / math.sqrt(2), atol=1e-12)

    def test_degenerate_row_rejected(self):
        means = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            cosines([[0.0, 0.0]], means)
