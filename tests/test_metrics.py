import csv
import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import rankdata

from skipalign import metrics
from skipalign.config import resolve_config
from skipalign.heads import normalize
from skipalign.metrics import (_forward_ranges, auroc, evaluate, ood_score, write_embedding_dump,
                               write_eval_csv)
from skipalign.net import ForwardResult, forward, init_params
from skipalign.synthdata import CHUNK_ROWS, generate
import golden_files


def ref_softmax_rows(logits):
    """The classifier's row softmax, written out apart from `heads.log_softmax`."""
    x = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def ref_id_probs(id_logits, ood_logits):
    """The detector's per-class ID probability, written out apart from `heads.two_way`."""
    shift = np.maximum(id_logits, ood_logits)
    e_id = np.exp(id_logits - shift)
    return e_id / (e_id + np.exp(ood_logits - shift))


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


def head_logits(id_logits, ood_logits, cc_logits=None):
    """A forward's head logits, all that `ood_score` reads of the forward; the
    classifier's are zero unless given."""
    id_logits = np.asarray(id_logits, dtype=np.float64)
    return SimpleNamespace(id_logits=id_logits,
                           ood_logits=np.asarray(ood_logits, dtype=np.float64),
                           cc_logits=np.zeros_like(id_logits) if cc_logits is None
                           else np.asarray(cc_logits, dtype=np.float64))


class TestOodScore:
    def test_all_one_id_probs(self):
        out = head_logits(np.full((2, 3), 50.0), np.full((2, 3), -50.0))
        for rule in ("ova_id_at_cc_argmax", "max_ova_id"):
            np.testing.assert_allclose(
                ood_score(out, np.zeros(2, dtype=np.intp), rule, np.zeros(2)), 1.0, atol=1e-12)

    def test_pass_through_at_argmax(self):
        # Equal logits give an ID probability of exactly one half.
        out = head_logits([[0.0, 3.0]], [[0.0, 0.0]])
        assert ood_score(out, np.array([0]), "ova_id_at_cc_argmax", np.zeros(1))[0] == 0.5

    def test_reads_per_sample_argmax_columns(self):
        id_logits, ood_logits = np.array([[2.0, -1.0], [0.5, 1.5]]), np.zeros((2, 2))
        ref = ref_id_probs(id_logits, ood_logits)
        cc_logits = np.log([[0.9, 0.1], [0.3, 0.7]])
        cc_probs = ref_softmax_rows(cc_logits)
        out = head_logits(id_logits, ood_logits, cc_logits)
        norms = np.zeros(2)
        assert ood_score(out, np.array([0, 1]), "ova_id_at_cc_argmax", norms).tolist() == [
            ref[0, 0], ref[1, 1]]
        # The columns are the given prediction's: the rule takes no argmax of its own.
        assert ood_score(out, np.array([1, 0]), "ova_id_at_cc_argmax", norms).tolist() == [
            ref[0, 1], ref[1, 0]]
        assert ood_score(out, np.array([1, 0]), "max_cc_softmax", norms).tolist() == [
            cc_probs[0, 1], cc_probs[1, 0]]

    def test_alternative_rules(self):
        id_logits, ood_logits = np.array([[0.0, 2.0]]), np.array([[1.0, 0.0]])
        cc_logits = np.log([[0.6, 0.4]])
        out, pred = head_logits(id_logits, ood_logits, cc_logits), np.array([0])
        norms = np.array([2.5])
        assert ood_score(out, pred, "max_cc_softmax", norms)[0] == ref_softmax_rows(
            cc_logits).max()
        assert ood_score(out, pred, "max_ova_id", norms)[0] == ref_id_probs(
            id_logits, ood_logits).max()
        assert ood_score(out, pred, "feature_norm", norms)[0] == 2.5

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            ood_score(head_logits([[0.4]], [[0.0]]), np.array([0]), "entropy", np.zeros(1))

    def test_logits_that_exp_ties(self, setup, monkeypatch):
        # exp(0 - 1e-17) rounds to 1, so classes 0 and 1 get one softmax probability,
        # though class 1's logit is larger. The prediction is the logits' argmax, class
        # 1, and max_cc_softmax scores the rows' maximum probability.
        cc_logits = np.array([[0.0, 1e-17, -1.0, -2.0]] * 3)
        probs = ref_softmax_rows(cc_logits)
        assert probs[0, 0] == probs[0, 1]
        out = head_logits(np.zeros((3, 4)), np.zeros((3, 4)), cc_logits)
        assert ood_score(out, cc_logits.argmax(axis=1), "max_cc_softmax",
                         np.zeros(3)).tolist() == probs.max(axis=1).tolist()
        f = np.ones((3, 2))
        report = evaluate_outputs(monkeypatch, setup, ["id:1", "id:1", "seen:0"], f, f,
                                  normalize(np.array([[1.0, 0.0]]))[0], cc_logits=cc_logits)
        assert report.accuracy == 1.0

    @pytest.mark.parametrize("rule", ["max_cc_softmax", "feature_norm"])
    def test_rules_without_the_detector_take_no_two_way(self, setup, monkeypatch, rule):
        params, split, unit_protos = setup

        def two_way(*args):
            raise AssertionError(f"{rule} reads no two-way softmax")

        monkeypatch.setattr(metrics, "two_way", two_way)
        assert evaluate(params, split, unit_protos, rule)[0].score_rule == rule


def row_categories(split, codes):
    """Each row's "<kind>:<index>" category, formed from the split's cluster table."""
    return [f"{split.clusters[c][0]}:{split.clusters[c][1]}" for c in codes.tolist()]


def evaluate_outputs(monkeypatch, setup, categories, features, embeddings, unit_protos,
                     clusters=None, cc_logits=None):
    """`evaluate`'s report when the forward returns the given features and
    embeddings (and all-zero logits, but the classifier's cc_logits if given) for
    test rows of the given categories, coded into the cluster table `clusters` (by
    default the setup split's). Test row i holds the value i, so the fake forward
    serves any row range."""
    params, split, _ = setup
    clusters = split.clusters if clusters is None else clusters
    code = {f"{kind}:{index}": k for k, (kind, index, *_) in enumerate(clusters)}
    n = len(categories)
    features = np.asarray(features, dtype=np.float64)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    logits = np.zeros((n, params.spec.num_classes))
    cc_logits = logits if cc_logits is None else cc_logits

    def fake_forward(p, x):
        rows = x[:, 0].astype(np.intp)
        return ForwardResult(features=features[rows], embeddings=embeddings[rows],
                             cc_logits=cc_logits[rows], id_logits=logits[rows],
                             ood_logits=logits[rows])

    monkeypatch.setattr("skipalign.metrics.forward", fake_forward)
    test_x = np.repeat(np.arange(n, dtype=np.float64)[:, None], split.test_x.shape[1], axis=1)
    rows = dataclasses.replace(split, test_x=test_x, test_ids=np.arange(n),
                               test_cluster=np.array([code[c] for c in categories]),
                               clusters=clusters)
    return evaluate(params, rows, unit_protos)[0]


class TestGeometryStats:
    """The report's per-category geometry: mean feature norm, mean best
    prototype cosine and row count per coarse category."""

    def test_identical_features_equal_norms(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[1.0, 0.0]]))[0]
        f = np.tile([[3.0, 4.0]], (4, 1))
        z = np.tile([[1.0, 1.0]], (4, 1))
        report = evaluate_outputs(monkeypatch, setup, ["id:0", "id:1", "seen:0", "seen:1"],
                                  f, z, unit_protos)
        assert report.norm_by_category == {"id": 5.0, "seen_ood": 5.0}

    def test_hand_built_two_category_norms(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[1.0, 0.0]]))[0]
        f = np.array([[3.0, 4.0], [0.0, 1.0]])
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = evaluate_outputs(monkeypatch, setup, ["id:0", "unseen:0"], f, z, unit_protos)
        assert report.norm_by_category == {"id": 5.0, "unseen_ood": 1.0}
        assert report.cosine_by_category["id"] == pytest.approx(1.0, abs=1e-12)
        assert report.cosine_by_category["unseen_ood"] == pytest.approx(0.0, abs=1e-12)

    def test_aligned_category_max_cosine_one(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[2.0, 0.0], [0.0, 2.0]]))[0]
        z = np.array([[5.0, 0.0], [3.0, 0.0]])
        report = evaluate_outputs(monkeypatch, setup, ["id:0", "id:1"], z, z, unit_protos)
        assert report.cosine_by_category["id"] == pytest.approx(1.0, abs=1e-12)

    def test_counts(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[1.0, 0.0]]))[0]
        f = np.ones((3, 2))
        report = evaluate_outputs(monkeypatch, setup, ["id:0", "id:1", "seen:0"], f, f,
                                  unit_protos)
        assert report.counts == {"id": 2, "seen_ood": 1}
        assert report.missing_categories == ["unseen_ood"]

    def test_categories_keep_table_order(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[1.0, 0.0]]))[0]
        f = np.arange(1.0, 9.0).reshape(4, 2)
        cats = ["seen:0", "id:0", "seen:1", "unseen:0"]
        report = evaluate_outputs(monkeypatch, setup, cats, f, f, unit_protos)
        assert list(report.norm_by_category) == ["id", "seen_ood", "unseen_ood"]
        assert list(report.cosine_by_category) == list(report.counts) == list(
            report.norm_by_category)
        assert report.counts["seen_ood"] == 2
        assert report.norm_by_category["seen_ood"] == np.linalg.norm(f[[0, 2]], axis=1).mean()
        # A table listing the unseen clusters first, and the seen clusters before the
        # galaxies, each kind in index order, orders the categories that way.
        _, split, _ = setup
        table = [c for kind in ("unseen", "seen", "id") for c in split.clusters if c[0] == kind]
        reordered = evaluate_outputs(monkeypatch, setup, cats + ["unseen:2"],
                                     np.vstack([f, f[:1]]), np.vstack([f, f[:1]]), unit_protos,
                                     clusters=table)
        assert list(reordered.norm_by_category) == ["unseen_ood", "seen_ood", "id"]
        assert list(reordered.auroc_per_source) == ["seen", "unseen_0", "unseen_2"]
        assert reordered.counts == {"unseen_ood": 2, "seen_ood": 2, "id": 1}


def small_scenario(**counts):
    cfg = resolve_config({"seed": 3})
    sizes = dict(labels_per_class=5, unlabeled_id_per_class=5,
                 unlabeled_seen_per_cluster=5, test_id_per_class=6,
                 test_seen_per_cluster=6, test_unseen_per_cluster=6)
    return dataclasses.replace(cfg.scenario, **{**sizes, **counts})


def plain_arrays(params, split):
    """The test rows' embeddings and feature norms from one forward of the whole split,
    the norms by `np.linalg.norm`."""
    out = forward(params, split.test_x)
    return out.embeddings, np.linalg.norm(out.features, axis=1)


def reference_embedding_dump(split, embeddings, norms, path):
    """The csv.writer loop the dump writer replaced: the bytes it must keep."""
    dim = embeddings.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "category", "feature_norm"] + [f"z_{j}" for j in range(dim)])
        category = row_categories(split, split.test_cluster)
        for i in range(split.test_x.shape[0]):
            writer.writerow([int(split.test_ids[i]), category[i],
                             repr(float(norms[i]))]
                            + [repr(float(v)) for v in embeddings[i]])


@pytest.fixture(scope="module")
def setup():
    cfg = resolve_config({"seed": 3})
    split = generate(small_scenario())
    params = init_params(cfg.net)
    unit_protos = normalize(np.random.default_rng(0).standard_normal((cfg.net.num_classes,
                                                                     cfg.net.embed_dim)))[0]
    return params, split, unit_protos


class TestEvaluate:

    def test_report_structure(self, setup):
        params, split, unit_protos = setup
        report = evaluate(params, split, unit_protos)[0]
        assert report.score_rule == "ova_id_at_cc_argmax"
        assert set(report.auroc_per_source) == {"seen", "unseen_0", "unseen_1", "unseen_2"}
        for v in report.auroc_per_source.values():
            assert 0.0 <= v <= 1.0
        unseen = [v for k, v in report.auroc_per_source.items() if k.startswith("unseen")]
        assert report.unseen_auc == pytest.approx(np.mean(unseen), abs=1e-12)
        assert report.overall_auc == pytest.approx(
            np.mean(list(report.auroc_per_source.values())), abs=1e-12)
        assert set(report.norm_by_category) == {"id", "seen_ood", "unseen_ood"}

    def test_csv_and_dump(self, setup, tmp_path):
        params, split, unit_protos = setup
        report, z, norms = evaluate(params, split, unit_protos)
        write_eval_csv(report, tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("overall_auc,") for line in lines)
        write_embedding_dump(split, z, norms, tmp_path / "emb.csv")
        rows = (tmp_path / "emb.csv").read_text().splitlines()
        assert len(rows) == split.test_x.shape[0] + 1
        assert rows[0].startswith("id,category,feature_norm,z_0")

        # The dump's bytes are the csv.writer loop's: of evaluate's arrays against
        # a plain forward's, on this split and on a split longer than one writer
        # chunk, and of edge floats in both columns.
        large = generate(small_scenario(test_id_per_class=80))
        assert large.test_x.shape[0] > CHUNK_ROWS
        edges = [-0.0, 5e-324, 1e-05, 1e16, -1.5e-300]
        edge_z = z.copy()
        edge_z.flat[:len(edges)] = edges
        edge_arrays = (edge_z, np.resize(edges, split.test_x.shape[0]))
        cases = [(rows, evaluate(params, rows, unit_protos)[1:], plain_arrays(params, rows))
                 for rows in (split, large)] + [(split, edge_arrays, edge_arrays)]
        for case_split, dumped, reference in cases:
            write_embedding_dump(case_split, *dumped, tmp_path / "emb.csv")
            reference_embedding_dump(case_split, *reference, tmp_path / "reference.csv")
            assert ((tmp_path / "emb.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())

    def test_matches_per_row_masks_on_permuted_rows(self, setup):
        params, split, unit_protos = setup
        order = np.random.default_rng(7).permutation(split.test_x.shape[0])
        cats = row_categories(split, split.test_cluster[order])
        permuted = dataclasses.replace(split, test_x=split.test_x[order],
                                       test_ids=split.test_ids[order],
                                       test_cluster=split.test_cluster[order])
        report = evaluate(params, permuted, unit_protos)[0]

        out = forward(params, permuted.test_x)
        cc_probs = ref_softmax_rows(out.cc_logits)
        pred = np.argmax(cc_probs, axis=1)
        scores = ref_id_probs(out.id_logits, out.ood_logits)[np.arange(pred.size), pred]
        is_id = np.array([c.startswith("id:") for c in cats])
        true_class = np.array([int(c[3:]) if c.startswith("id:") else -1 for c in cats])
        assert report.accuracy == float((pred[is_id] == true_class[is_id]).mean())
        expected = {"seen": brute_force_auroc(
            scores[is_id], scores[[c.startswith("seen:") for c in cats]])}
        for u in range(3):
            expected[f"unseen_{u}"] = brute_force_auroc(
                scores[is_id], scores[[c == f"unseen:{u}" for c in cats]])
        assert list(report.auroc_per_source.items()) == list(expected.items())

        coarse = ["id" if c.startswith("id:") else "seen_ood" if c.startswith("seen:")
                  else "unseen_ood" for c in cats]
        table_order = ["id", "seen_ood", "unseen_ood"]
        assert list(dict.fromkeys(coarse)) != table_order  # the order is exercised
        assert list(report.norm_by_category) == table_order
        assert list(report.cosine_by_category) == table_order
        assert list(report.counts) == table_order
        for name in table_order:
            rows = np.array([c == name for c in coarse])
            assert report.counts[name] == rows.sum()
            assert report.norm_by_category[name] == np.linalg.norm(out.features[rows],
                                                                   axis=1).mean()
            best_cosines = [max(unit_protos @ (z / np.linalg.norm(z)))
                            for z in out.embeddings[rows]]
            assert report.cosine_by_category[name] == pytest.approx(np.mean(best_cosines),
                                                                    rel=1e-12, abs=1e-15)
        assert report.missing_categories == []

    def test_reports_categories_without_test_rows(self, setup):
        params, _, unit_protos = setup
        split = generate(small_scenario(test_seen_per_cluster=0))
        report = evaluate(params, split, unit_protos)[0]
        assert report.missing_categories == ["seen_ood"]
        assert "seen" not in report.auroc_per_source
        assert list(report.counts) == ["id", "unseen_ood"]


def range_bounds(monkeypatch, n):
    """The (lo, hi) row ranges `_forward_ranges` forwards for an n-row split."""
    monkeypatch.setattr("skipalign.metrics.forward", lambda p, x: None)
    return [(lo, hi) for lo, hi, _ in _forward_ranges(None, np.empty((n, 1)))]


def traced_peak(fn, *args) -> int:
    """Peak bytes `fn(*args)` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_split():
    """An 18,000-row test split: 4 ID, 2 seen and 3 unseen clusters of 2,000 rows."""
    return generate(small_scenario(test_id_per_class=2000, test_seen_per_cluster=2000,
                                   test_unseen_per_cluster=2000))


class TestForwardRanges:
    """`evaluate` forwards the test split in balanced row ranges; the ranges change
    neither the report nor the bytes of the dump written from its arrays."""

    @pytest.mark.parametrize("chunk", [3, 4, 7, 64, metrics.FORWARD_CHUNK_ROWS])
    def test_ranges_are_balanced_contiguous_and_never_one_row(self, monkeypatch, chunk):
        monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", chunk)
        assert range_bounds(monkeypatch, 0) == []
        for n in list(range(1, 5 * chunk + 2)) + [18_000]:
            bounds = range_bounds(monkeypatch, n)
            lengths = [hi - lo for lo, hi in bounds]
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == n
            assert max(lengths) <= chunk and max(lengths) - min(lengths) <= 1
            assert n == 1 or min(lengths) >= 2, (n, lengths)

    @pytest.mark.parametrize("chunk_for", [lambda n: 2, lambda n: 7, lambda n: n - 1],
                             ids=["2", "7", "n-1"])
    def test_ranges_keep_report_and_dump_bytes(self, setup, tmp_path, monkeypatch, chunk_for):
        params, split, unit_protos = setup
        n = split.test_x.shape[0]
        assert n % 2 == 0  # ranges of 2 rows cover it; n - 1 rows leave a (k*c + 1)-row split
        whole, z, norms = evaluate(params, split, unit_protos)
        write_embedding_dump(split, z, norms, tmp_path / "whole.csv")

        chunk = chunk_for(n)
        monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", chunk)
        lengths = []

        def recording(p, x):
            lengths.append(x.shape[0])
            return forward(p, x)

        monkeypatch.setattr("skipalign.metrics.forward", recording)
        report, z, norms = evaluate(params, split, unit_protos)
        write_embedding_dump(split, z, norms, tmp_path / "ranges.csv")
        assert sum(lengths) == n and len(lengths) > 1  # one pass, in ranges
        assert all(2 <= m <= chunk for m in lengths)
        # A range's product may round apart from the whole split's under another BLAS
        # kernel: a failure names the platform.
        platform = f"ranged and whole forwards differ on {golden_files.platform_record()}"
        assert report == whole, platform
        assert report.csv_rows() == whole.csv_rows(), platform
        assert ((tmp_path / "ranges.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes()), platform

    def test_large_split_keeps_report_and_dump_bytes(self, setup, large_split, tmp_path,
                                                     monkeypatch):
        params, _, unit_protos = setup
        ranged, z, norms = evaluate(params, large_split, unit_protos)
        write_embedding_dump(large_split, z, norms, tmp_path / "ranges.csv")
        monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", large_split.test_x.shape[0])
        whole, z, norms = evaluate(params, large_split, unit_protos)
        assert whole.csv_rows() == ranged.csv_rows()
        write_embedding_dump(large_split, z, norms, tmp_path / "whole.csv")
        assert (tmp_path / "ranges.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_one_row_split(self, setup, tmp_path):
        params, split, unit_protos = setup
        one = dataclasses.replace(split, test_x=split.test_x[:1], test_ids=split.test_ids[:1],
                                  test_cluster=split.test_cluster[:1])
        report, z, norms = evaluate(params, one, unit_protos)
        out = forward(params, one.test_x)
        assert report.counts == {"id": 1}
        assert report.norm_by_category == {"id": np.linalg.norm(out.features, axis=1)[0]}
        assert report.missing_categories == ["seen_ood", "unseen_ood"]
        write_embedding_dump(one, z, norms, tmp_path / "emb.csv")
        reference_embedding_dump(one, *plain_arrays(params, one), tmp_path / "reference.csv")
        assert (tmp_path / "emb.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_embeddings_are_checked_for_finite_values_once(self, setup, monkeypatch):
        # net.forward checks every layer output; nothing after it checks them again.
        params, split, unit_protos = setup
        monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", 7)
        outs, checked = [], []
        real_isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checked.append(a) or real_isfinite(a))
        monkeypatch.setattr("skipalign.metrics.forward",
                            lambda p, x: outs.append(forward(p, x)) or outs[-1])
        evaluate(params, split, unit_protos)
        assert len(outs) > 2
        assert [sum(a is out.embeddings for a in checked) for out in outs] == [1] * len(outs)

    def test_geometry_stats_across_a_range_boundary(self, setup, monkeypatch):
        unit_protos = normalize(np.array([[1.0, 0.0]]))[0]
        f = np.arange(1.0, 13.0).reshape(6, 2)
        cats = ["seen:0", "id:0", "seen:1", "unseen:0", "id:1", "seen:0"]
        whole = evaluate_outputs(monkeypatch, setup, cats, f, f, unit_protos)
        monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", 4)
        assert evaluate_outputs(monkeypatch, setup, cats, f, f, unit_protos) == whole
        assert whole.counts == {"seen_ood": 3, "id": 2, "unseen_ood": 1}


class TestEvaluationMemory:
    """`evaluate` over an 18,000-row split holds one range's activations, 1-D per-row
    arrays and the (18,000, 8) embeddings, and the dump writer only formats them;
    one forward over all 18,000 rows peaked near 9 MB."""

    def test_evaluate_peak_is_bounded(self, setup, large_split):
        params, split, unit_protos = setup
        evaluate(params, split, unit_protos)  # first-call allocations are not the pass's
        assert traced_peak(evaluate, params, large_split, unit_protos) < 3_000_000

    def test_embedding_dump_peak_is_bounded(self, setup, large_split, tmp_path):
        params, split, unit_protos = setup
        write_embedding_dump(split, *evaluate(params, split, unit_protos)[1:],
                             tmp_path / "small.csv")
        arrays = evaluate(params, large_split, unit_protos)[1:]
        assert traced_peak(write_embedding_dump, large_split, *arrays,
                           tmp_path / "emb.csv") < 3_000_000


def reference_evaluate(params, split, unit_protos, score_rule):
    """`evaluate` written the plain way in numpy, the reference for its bytes: the
    prediction is the classifier logits' argmax, every rule takes the full softmaxes,
    norms are sums of squares, and row maxima come from `.max(axis=1)`."""
    n = split.test_x.shape[0]
    codes = split.test_cluster
    present = np.flatnonzero(np.bincount(codes))
    coarse = np.array([metrics.COARSE_CATEGORIES[kind] for kind, *_ in split.clusters])
    groups = {c: (coarse == c)[codes] for c in dict.fromkeys(coarse[present].tolist())}
    id_rows = groups["id"]
    true_class = np.array([index for _, index, *_ in split.clusters])[codes]

    pred = np.empty(n, dtype=np.intp)
    scores, norms, max_cos = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi, out in _forward_ranges(params, split.test_x):
        cc_probs = ref_softmax_rows(out.cc_logits)
        pred[lo:hi] = np.argmax(out.cc_logits, axis=1)
        norms[lo:hi] = np.sqrt((out.features * out.features).sum(axis=1))
        ova_probs = ref_id_probs(out.id_logits, out.ood_logits)
        scores[lo:hi] = {
            "ova_id_at_cc_argmax": lambda: ova_probs[np.arange(hi - lo), pred[lo:hi]],
            "max_cc_softmax": lambda: np.max(cc_probs, axis=1),
            "max_ova_id": lambda: np.max(ova_probs, axis=1),
            "feature_norm": lambda: norms[lo:hi],
        }[score_rule]()
        z = out.embeddings
        unit = z / np.sqrt((z * z).sum(axis=1, keepdims=True))
        max_cos[lo:hi] = (unit @ unit_protos.T).max(axis=1)
    accuracy = float((pred[id_rows] == true_class[id_rows]).mean())

    id_scores = scores[id_rows]
    seen = {"seen": auroc(id_scores, scores[groups["seen_ood"]])} if "seen_ood" in groups else {}
    unseen = {f"unseen_{split.clusters[k][1]}": auroc(id_scores, scores[codes == k])
              for k in present.tolist() if split.clusters[k][0] == "unseen"}
    sources = seen | unseen
    return metrics.EvalReport(
        accuracy=accuracy, score_rule=score_rule, auroc_per_source=sources,
        seen_auc=sources.get("seen", float("nan")),
        unseen_auc=float(np.mean(list(unseen.values()))) if unseen else float("nan"),
        overall_auc=float(np.mean(list(sources.values()))) if sources else float("nan"),
        norm_by_category={c: float(norms[rows].mean()) for c, rows in groups.items()},
        cosine_by_category={c: float(max_cos[rows].mean()) for c, rows in groups.items()},
        counts={c: int(rows.sum()) for c, rows in groups.items()},
        missing_categories=[c for c in metrics.COARSE_CATEGORIES.values() if c not in groups],
    )


def tied_outputs(monkeypatch, setup):
    """The setup split with a fake forward whose rows are full of exact ties: integer
    classifier logits with the maximum at two classes, or a maximum 1e-17 above the
    runner-up, which exp rounds to the same probability; detector logits equal at two
    classes, embeddings equally close to two of the axis prototypes, and integer
    features, forwarded in 7-row ranges; with the (K, d) axis prototypes."""
    params, split, _ = setup
    n, k, d = split.test_x.shape[0], params.spec.num_classes, params.spec.embed_dim
    rng = np.random.default_rng(11)
    cc = rng.integers(0, 3, (n, k)).astype(np.float64)
    cc[::3, :2] = 3.0  # the classifier's maximum at classes 0 and 1
    cc[1::3] -= 3.0
    cc[1::3, :2] = (0.0, 1e-17)  # one probability at classes 0 and 1, class 1's logit larger
    id_logits = rng.integers(-2, 3, (n, k)).astype(np.float64)
    id_logits[::2, 1:3] = 4.0  # the same ID probability at classes 1 and 2
    ood_logits = rng.integers(-2, 3, (n, k)).astype(np.float64)
    ood_logits[::2, 1:3] = 0.0
    z = rng.integers(0, 3, (n, d)).astype(np.float64)
    z[:, :2] = rng.integers(1, 3, (n, 1))  # as close to prototype 0 as to prototype 1
    features = rng.integers(-2, 3, (n, params.spec.feature_dim)).astype(np.float64)
    features[:, 0] = 3.0

    def fake_forward(p, x):
        rows = x[:, 0].astype(np.intp)
        return ForwardResult(features=features[rows], embeddings=z[rows],
                             cc_logits=cc[rows], id_logits=id_logits[rows],
                             ood_logits=ood_logits[rows])

    monkeypatch.setattr("skipalign.metrics.forward", fake_forward)
    monkeypatch.setattr(metrics, "FORWARD_CHUNK_ROWS", 7)
    test_x = np.repeat(np.arange(n, dtype=np.float64)[:, None], split.test_x.shape[1], axis=1)
    return dataclasses.replace(split, test_x=test_x), np.eye(k, d)


class TestEvaluateKeepsItsBytes:
    """Each rule's report, as JSON, is the reference loop's, on the fixture split, on a
    split that crosses FORWARD_CHUNK_ROWS, and on rows full of exact ties."""

    @pytest.mark.parametrize("rule", metrics.SCORE_RULES)
    @pytest.mark.parametrize("case", ["fixture", "large", "ties"])
    def test_report_is_the_reference_loops(self, setup, large_split, monkeypatch, rule, case):
        params, split, unit_protos = setup
        if case == "large":
            split = large_split
            assert split.test_x.shape[0] > metrics.FORWARD_CHUNK_ROWS
        elif case == "ties":
            split, unit_protos = tied_outputs(monkeypatch, setup)
        report = evaluate(params, split, unit_protos, rule)[0]
        reference = reference_evaluate(params, split, unit_protos, rule)
        assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())
