import csv
import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import rankdata

from skipalign.config import default_config
from skipalign.heads import OvaOutput
from skipalign.metrics import (CategoryGeometry, auroc, evaluate, geometry_stats,
                               ood_score, write_embedding_dump, write_eval_csv)
from skipalign.linalg import softmax_rows
from skipalign.net import forward, init_params
from skipalign.prototypes import PrototypeSet
from skipalign.synthdata import CHUNK_ROWS, generate


def brute_force_auroc(id_scores, ood_scores) -> float:
    """Independent oracle: literal double loop over all pairs."""
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def rank_based_auroc(id_scores, ood_scores) -> float:
    """Second independent route via mid-ranks of the pooled sample."""
    pooled = np.concatenate([id_scores, ood_scores])
    ranks = rankdata(pooled)
    n_id, n_ood = len(id_scores), len(ood_scores)
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2
    return u / (n_id * n_ood)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_identical_multisets(self):
        assert auroc([0.3, 0.7], [0.3, 0.7]) == 0.5

    def test_hand_counted_pairs(self):
        assert auroc([0.9, 0.4], [0.5, 0.1]) == 0.75

    def test_empty_input(self):
        with pytest.raises(ValueError, match="id_scores"):
            auroc([], [0.5])

    @pytest.mark.parametrize("id_scores, ood_scores, name", [
        ([0.5], [], "ood_scores"),
        ([0.5], [[0.1, 0.2], [0.3, 0.4]], "ood_scores"),
        ([[0.5, 0.6]], [0.1], "id_scores"),
        (0.5, [0.1], "id_scores"),
    ], ids=["empty-ood", "2d-ood", "2d-id", "scalar-id"])
    def test_rejects_empty_or_non_1d_input(self, id_scores, ood_scores, name):
        with pytest.raises(ValueError, match=name):
            auroc(id_scores, ood_scores)

    @pytest.mark.parametrize("a, b", [
        ([np.nan, 0.5, 0.2], [0.3, 0.1]),
        ([0.5, 0.2], [np.nan, 0.3, np.nan]),
        ([np.nan, 0.4], [np.nan, 0.4]),
        ([np.nan], [np.nan]),
        ([np.inf, -np.inf, 1.0], [np.inf, -np.inf, 0.0]),
        ([np.inf, np.nan], [np.inf, -np.inf, np.nan]),
        ([-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]),
        ([0.0, 0.0], [-0.0]),
        ([0.7] * 5, [0.7] * 3),
        ([0.3], [0.3]),
        ([0.3], [0.2]),
        ([0.2], [0.3, 0.2, 0.1]),
        ([0.1, 0.9, 0.5], [0.5]),
    ], ids=["nan-id", "nan-ood", "nan-both", "only-nan", "inf", "inf-nan", "signed-zero",
            "signed-zero-tie", "all-tied", "single-tie", "single-win", "single-id",
            "single-ood"])
    def test_edge_values_match_brute_force(self, a, b):
        assert auroc(a, b) == brute_force_auroc(a, b)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n_id = int(rng.integers(1, 40))
            n_ood = int(rng.integers(1, 40))
            # quantize to force ties
            a = np.round(rng.uniform(0, 1, n_id), 1)
            b = np.round(rng.uniform(0, 1, n_ood), 1)
            assert auroc(a, b) == brute_force_auroc(a.tolist(), b.tolist())

    def test_matches_brute_force_at_larger_sizes(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = np.round(rng.uniform(0, 1, 500), 2)
            b = np.round(rng.uniform(0, 1, 400), 2)
            assert auroc(a, b) == brute_force_auroc(a.tolist(), b.tolist())

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal(20)
            b = rng.standard_normal(30)
            assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(0.1, 5, 15)
            b = rng.uniform(0.1, 5, 25)
            base = auroc(a, b)
            for transform in (np.log, np.sqrt, lambda v: 3 * v + 2, lambda v: v ** 3):
                assert auroc(transform(a), transform(b)) == pytest.approx(base, abs=1e-12)

    def test_matches_rank_based_implementation(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = np.round(rng.uniform(0, 1, int(rng.integers(2, 1000))), 2)
            b = np.round(rng.uniform(0, 1, int(rng.integers(2, 1000))), 2)
            assert auroc(a, b) == pytest.approx(rank_based_auroc(a, b), abs=1e-12)

    def test_equals_rank_based_implementation_at_scale(self):
        # Midranks are half-integers, so the scipy route is exact here too.
        rng = np.random.default_rng(5)
        a = np.round(rng.normal(0.3, 1.0, 20_000), 3)
        b = np.round(rng.normal(0.0, 1.0, 10_000), 3)
        assert auroc(a, b) == rank_based_auroc(a, b)

    def test_memory_is_linear_in_the_score_sets(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(4_000)
        b = rng.standard_normal(2_500)
        tracemalloc.start()
        try:
            auroc(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def ova_from_probs(id_probs) -> OvaOutput:
    """Detector outputs with the given ID probabilities: logit ID, zero OOD logits."""
    p = np.asarray(id_probs, dtype=np.float64)
    return OvaOutput.from_logits(np.log(p) - np.log1p(-p), np.zeros_like(p))


class TestOodScore:
    def test_all_one_id_probs(self):
        out = OvaOutput.from_logits(np.full((2, 3), 50.0), np.full((2, 3), -50.0))
        cc = np.full((2, 3), 1 / 3)
        np.testing.assert_allclose(ood_score(out, cc), 1.0, atol=1e-12)

    def test_pass_through_at_argmax(self):
        out = ova_from_probs(np.array([[0.5, 0.9]]))
        cc = np.array([[0.8, 0.2]])
        assert ood_score(out, cc)[0] == pytest.approx(0.5, abs=1e-12)

    def test_reads_per_sample_argmax_columns(self):
        out = ova_from_probs(np.array([[0.9, 0.1], [0.2, 0.7]]))
        cc = np.array([[0.9, 0.1], [0.3, 0.7]])
        scores = ood_score(out, cc)
        assert scores[0] == pytest.approx(0.9, abs=1e-12)
        assert scores[1] == pytest.approx(0.7, abs=1e-12)

    def test_alternative_rules(self):
        out = ova_from_probs(np.array([[0.4, 0.8]]))
        cc = np.array([[0.6, 0.4]])
        assert ood_score(out, cc, rule="max_cc_softmax")[0] == pytest.approx(0.6)
        assert ood_score(out, cc, rule="max_ova_id")[0] == pytest.approx(0.8)
        norms = np.array([2.5])
        assert ood_score(out, cc, rule="feature_norm", feature_norms=norms)[0] == 2.5

    def test_feature_norm_requires_norms(self):
        out = ova_from_probs(np.array([[0.4]]))
        with pytest.raises(ValueError):
            ood_score(out, np.array([[1.0]]), rule="feature_norm")

    def test_unknown_rule(self):
        out = ova_from_probs(np.array([[0.4]]))
        with pytest.raises(ValueError):
            ood_score(out, np.array([[1.0]]), rule="entropy")


class TestGeometryStats:
    def test_identical_features_equal_norms(self):
        protos = PrototypeSet.from_means(np.array([[1.0, 0.0]]))
        f = np.tile([[3.0, 4.0]], (4, 1))
        z = np.tile([[1.0, 1.0]], (4, 1))
        stats = geometry_stats(f, z, protos, ["a", "a", "b", "b"])
        assert stats["a"].mean_feature_norm == stats["b"].mean_feature_norm == 5.0

    def test_hand_built_two_category_norms(self):
        protos = PrototypeSet.from_means(np.array([[1.0, 0.0]]))
        f = np.array([[3.0, 4.0], [0.0, 1.0]])
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        stats = geometry_stats(f, z, protos, ["id", "ood"])
        assert stats["id"].mean_feature_norm == 5.0
        assert stats["ood"].mean_feature_norm == 1.0
        assert stats["id"].mean_max_cosine == pytest.approx(1.0, abs=1e-12)
        assert stats["ood"].mean_max_cosine == pytest.approx(0.0, abs=1e-12)

    def test_aligned_category_max_cosine_one(self):
        protos = PrototypeSet.from_means(np.array([[2.0, 0.0], [0.0, 2.0]]))
        z = np.array([[5.0, 0.0], [3.0, 0.0]])
        f = z.copy()
        stats = geometry_stats(f, z, protos, ["id", "id"])
        assert stats["id"].mean_max_cosine == pytest.approx(1.0, abs=1e-12)

    def test_counts(self):
        protos = PrototypeSet.from_means(np.array([[1.0, 0.0]]))
        f = np.ones((3, 2))
        stats = geometry_stats(f, f, protos, ["a", "a", "b"])
        assert stats["a"].count == 2 and stats["b"].count == 1
        assert isinstance(stats["a"], CategoryGeometry)

    def test_categories_keep_first_appearance_order(self):
        protos = PrototypeSet.from_means(np.array([[1.0, 0.0]]))
        f = np.arange(1.0, 9.0).reshape(4, 2)
        stats = geometry_stats(f, f, protos, ["seen", "id", "seen", "unseen"])
        assert list(stats) == ["seen", "id", "unseen"]
        assert stats["seen"].count == 2
        assert stats["seen"].mean_feature_norm == np.linalg.norm(f[[0, 2]], axis=1).mean()


def small_scenario(**counts):
    cfg = default_config(seed=3)
    sizes = dict(labels_per_class=5, unlabeled_id_per_class=5,
                 unlabeled_seen_per_cluster=5, test_id_per_class=6,
                 test_seen_per_cluster=6, test_unseen_per_cluster=6)
    return dataclasses.replace(cfg.scenario, **{**sizes, **counts})


def reference_embedding_dump(out, split, path):
    """The csv.writer loop the dump writer replaced: the bytes it must keep."""
    dim = out.embeddings.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "category", "feature_norm"] + [f"z_{j}" for j in range(dim)])
        for i in range(split.test_x.shape[0]):
            writer.writerow([int(split.test_ids[i]), split.test_category[i],
                             repr(float(out.feature_norms[i]))]
                            + [repr(float(v)) for v in out.embeddings[i]])


@pytest.fixture(scope="module")
def setup():
    cfg = default_config(seed=3)
    split = generate(small_scenario())
    params = init_params(cfg.net)
    protos = PrototypeSet.from_means(
        np.random.default_rng(0).standard_normal((cfg.net.num_classes,
                                                  cfg.net.embed_dim)))
    return params, split, protos


class TestEvaluate:

    def test_report_structure(self, setup):
        params, split, protos = setup
        report = evaluate(params, split, protos)
        assert report.score_rule == "ova_id_at_cc_argmax"
        assert set(report.auroc_per_source) == {"seen", "unseen_0", "unseen_1", "unseen_2"}
        for v in report.auroc_per_source.values():
            assert 0.0 <= v <= 1.0
        unseen = [v for k, v in report.auroc_per_source.items() if k.startswith("unseen")]
        assert report.unseen_auc == pytest.approx(np.mean(unseen), abs=1e-12)
        assert report.overall_auc == pytest.approx(
            np.mean(list(report.auroc_per_source.values())), abs=1e-12)
        assert set(report.norm_by_category) == {"id", "seen_ood", "unseen_ood"}

    def test_csv_and_dump(self, setup, tmp_path, monkeypatch):
        params, split, protos = setup
        report = evaluate(params, split, protos)
        write_eval_csv(report, tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("overall_auc,") for line in lines)
        write_embedding_dump(params, split, tmp_path / "emb.csv")
        rows = (tmp_path / "emb.csv").read_text().splitlines()
        assert len(rows) == split.test_x.shape[0] + 1
        assert rows[0].startswith("id,category,feature_norm,z_0")

        # The dump's bytes are the csv.writer loop's: on this split, on a split
        # longer than one writer chunk, and on edge floats in both columns.
        large = generate(small_scenario(test_id_per_class=80))
        assert large.test_x.shape[0] > CHUNK_ROWS
        out = forward(params, split.test_x)
        edges = [-0.0, 5e-324, 1e-05, 1e16, -1.5e-300]
        z = out.embeddings.copy()
        z.flat[:len(edges)] = edges
        edge_out = SimpleNamespace(feature_norms=np.resize(edges, split.test_x.shape[0]),
                                   embeddings=z)
        for case_split, fake_out in ((split, None), (large, None), (split, edge_out)):
            if fake_out is not None:
                monkeypatch.setattr("skipalign.metrics.forward", lambda p, x: fake_out)
            write_embedding_dump(params, case_split, tmp_path / "emb.csv")
            reference_embedding_dump(fake_out or forward(params, case_split.test_x),
                                     case_split, tmp_path / "reference.csv")
            assert ((tmp_path / "emb.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())

    def test_matches_per_row_masks_on_permuted_rows(self, setup):
        params, split, protos = setup
        order = np.random.default_rng(7).permutation(split.test_x.shape[0])
        cats = [split.test_category[i] for i in order]
        permuted = dataclasses.replace(split, test_x=split.test_x[order],
                                       test_ids=split.test_ids[order], test_category=cats)
        report = evaluate(params, permuted, protos)

        out = forward(params, permuted.test_x)
        cc_probs = softmax_rows(out.cc_logits)
        scores = ood_score(out.ova, cc_probs)
        is_id = np.array([c.startswith("id:") for c in cats])
        true_class = np.array([int(c[3:]) if c.startswith("id:") else -1 for c in cats])
        pred = np.argmax(cc_probs, axis=1)
        assert report.accuracy == float((pred[is_id] == true_class[is_id]).mean())
        expected = {"seen": brute_force_auroc(
            scores[is_id], scores[[c.startswith("seen:") for c in cats]])}
        for u in range(3):
            expected[f"unseen_{u}"] = brute_force_auroc(
                scores[is_id], scores[[c == f"unseen:{u}" for c in cats]])
        assert list(report.auroc_per_source.items()) == list(expected.items())

        coarse = ["id" if c.startswith("id:") else "seen_ood" if c.startswith("seen:")
                  else "unseen_ood" for c in cats]
        first_seen = list(dict.fromkeys(coarse))
        assert first_seen != ["id", "seen_ood", "unseen_ood"]  # the order is exercised
        assert list(report.norm_by_category) == first_seen
        assert list(report.cosine_by_category) == first_seen
        assert list(report.counts) == first_seen
        for name in first_seen:
            rows = np.array([c == name for c in coarse])
            assert report.counts[name] == rows.sum()
            assert report.norm_by_category[name] == out.feature_norms[rows].mean()
        assert report.missing_categories == []

    def test_reports_categories_without_test_rows(self, setup):
        params, _, protos = setup
        split = generate(small_scenario(test_seen_per_cluster=0))
        report = evaluate(params, split, protos)
        assert report.missing_categories == ["seen_ood"]
        assert "seen" not in report.auroc_per_source
        assert list(report.counts) == ["id", "unseen_ood"]
