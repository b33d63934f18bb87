import csv
import dataclasses

import numpy as np
import pytest

from skipalign.synthdata import (CHUNK_ROWS, ScenarioSpec, audit_no_leakage, augment, generate,
                                 write_split_csv)

SMALL = ScenarioSpec(input_dim=6, num_classes=3, labels_per_class=5,
                     unlabeled_id_per_class=8, unlabeled_seen_per_cluster=6,
                     test_id_per_class=4, test_seen_per_cluster=3,
                     test_unseen_per_cluster=3, seen_ood_clusters=2,
                     unseen_ood_clusters=2, unseen_between_hull=1, seed=0)


class TestGenerate:
    def test_exact_counts(self):
        split = generate(SMALL)
        assert split.labeled_x.shape == (15, 6)
        assert split.labeled_y.shape == (15,)
        assert split.unlabeled_x.shape == (3 * 8 + 2 * 6, 6)
        assert split.test_x.shape == (3 * 4 + 2 * 3 + 2 * 3, 6)
        assert len(split.unlabeled_category) == split.unlabeled_x.shape[0]
        assert len(split.test_category) == split.test_x.shape[0]

    def test_three_classes_fifty_labels(self):
        spec = dataclasses.replace(SMALL, num_classes=3, labels_per_class=50)
        split = generate(spec)
        assert split.labeled_x.shape[0] == 150
        for k in range(3):
            assert int((split.labeled_y == k).sum()) == 50

    def test_same_seed_bitwise_identical(self):
        a = generate(SMALL)
        b = generate(SMALL)
        assert np.array_equal(a.labeled_x, b.labeled_x)
        assert np.array_equal(a.unlabeled_x, b.unlabeled_x)
        assert np.array_equal(a.test_x, b.test_x)
        assert a.test_category == b.test_category

    def test_different_seed_differs(self):
        b = generate(dataclasses.replace(SMALL, seed=1))
        assert not np.array_equal(generate(SMALL).labeled_x, b.labeled_x)

    def test_degenerate_closed_set(self):
        spec = dataclasses.replace(SMALL, seen_ood_clusters=0, unseen_ood_clusters=0,
                                   unseen_between_hull=0, unlabeled_seen_per_cluster=0,
                                   test_seen_per_cluster=0, test_unseen_per_cluster=0)
        split = generate(spec)
        assert all(c.startswith("id:") for c in split.unlabeled_category)
        assert all(c.startswith("id:") for c in split.test_category)

    def test_unique_ids(self):
        split = generate(SMALL)
        all_ids = np.concatenate([split.labeled_ids, split.unlabeled_ids, split.test_ids])
        assert len(set(all_ids.tolist())) == all_ids.size

    def test_no_leakage(self):
        audit_no_leakage(generate(SMALL))

    def test_separation_constraint_error(self):
        # A radius too small to fit many separated clusters must fail loudly.
        spec = dataclasses.replace(SMALL, input_dim=2, num_classes=6,
                                   id_mean_radius=1.0, min_separation=3.0,
                                   max_placement_tries=20)
        with pytest.raises(ValueError, match="separation"):
            generate(spec)

    def test_id_means_respect_separation(self):
        split = generate(SMALL)
        means = [np.array(c["mean"]) for c in split.manifest["clusters"]
                 if c["kind"] == "id"]
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                assert np.linalg.norm(means[i] - means[j]) >= SMALL.min_separation

    def test_between_hull_cluster_sits_inside(self):
        split = generate(SMALL)
        id_means = [np.array(c["mean"]) for c in split.manifest["clusters"]
                    if c["kind"] == "id"]
        unseen = [c for c in split.manifest["clusters"] if c["kind"] == "unseen"]
        hull_center = np.mean(id_means, axis=0)
        # the last unseen cluster is the between-hull one
        assert np.linalg.norm(np.array(unseen[-1]["mean"]) - hull_center) < 2.0

    def test_manifest_counts(self):
        split = generate(SMALL)
        assert split.manifest["counts"]["labeled"] == 15
        assert split.manifest["counts"]["unlabeled"] == 36
        assert split.manifest["counts"]["test"] == 24


class TestSpecValidation:
    def test_weak_noise_must_be_below_strong(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, sigma_weak=1.0, sigma_strong=0.5)

    def test_between_count_bounded(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, unseen_between_hull=5)

    def test_placement_mode_validated(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, seen_placement="cosmic")


class TestAugment:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        out = augment(x, "weak", np.random.default_rng(1), sigma_weak=0.0,
                      sigma_strong=1.0, strong_dropout=0.5)
        assert np.array_equal(out, x)

    def test_weak_views_are_independent_draws(self):
        rng = np.random.default_rng(2)
        x = np.zeros((3, 4))
        kwargs = dict(sigma_weak=0.3, sigma_strong=1.0, strong_dropout=0.2)
        a = augment(x, "weak", rng, **kwargs)
        b = augment(x, "weak2", rng, **kwargs)
        assert not np.array_equal(a, b)

    def test_full_dropout_leaves_only_noise(self):
        base = np.full((5, 4), 7.0)
        rng_a = np.random.default_rng(3)
        out = augment(base, "strong", rng_a, sigma_weak=0.1, sigma_strong=0.5,
                      strong_dropout=1.0)
        # reproduce the operator: all coordinates dropped, noise remains
        rng_b = np.random.default_rng(3)
        _ = rng_b.random(base.shape)
        noise = 0.5 * rng_b.standard_normal(base.shape)
        np.testing.assert_allclose(out, noise, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            augment(np.zeros((1, 1)), "mild", np.random.default_rng(0),
                    sigma_weak=0.1, sigma_strong=0.5, strong_dropout=0.1)


# Floats whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, and exponents at and beyond repr's switch to scientific notation.
EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, -1.5e-300]


def reference_split_csv(split, path):
    """The csv.writer loop the split writer replaced: the bytes it must keep."""
    dim = split.labeled_x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "id", "category", "label"] + [f"x_{j}" for j in range(dim)])
        for i in range(split.labeled_x.shape[0]):
            writer.writerow(["labeled", int(split.labeled_ids[i]),
                             f"id:{int(split.labeled_y[i])}", int(split.labeled_y[i])]
                            + [repr(float(v)) for v in split.labeled_x[i]])
        for i in range(split.unlabeled_x.shape[0]):
            writer.writerow(["unlabeled", int(split.unlabeled_ids[i]),
                             split.unlabeled_category[i], ""]
                            + [repr(float(v)) for v in split.unlabeled_x[i]])
        for i in range(split.test_x.shape[0]):
            writer.writerow(["test", int(split.test_ids[i]), split.test_category[i], ""]
                            + [repr(float(v)) for v in split.test_x[i]])


def with_edge_floats(split):
    """The split with EDGE_FLOATS written over the first values of each part."""
    parts = {}
    for name in ("labeled_x", "unlabeled_x", "test_x"):
        x = getattr(split, name).copy()
        x.flat[:len(EDGE_FLOATS)] = EDGE_FLOATS
        parts[name] = x
    return dataclasses.replace(split, **parts)


class TestSerialization:
    def test_bytes_match_csv_writer(self, tmp_path):
        default = generate(ScenarioSpec())
        assert default.labeled_x.shape[0] > 0
        assert min(default.unlabeled_x.shape[0], default.test_x.shape[0]) > CHUNK_ROWS
        for split in (default, with_edge_floats(generate(SMALL))):
            write_split_csv(split, tmp_path / "split.csv")
            reference_split_csv(split, tmp_path / "reference.csv")
            assert ((tmp_path / "split.csv").read_bytes()
                    == (tmp_path / "reference.csv").read_bytes())

    def test_csv_round_trip(self, tmp_path):
        split = generate(SMALL)
        path = tmp_path / "split.csv"
        write_split_csv(split, path)
        rows = {"labeled": [], "unlabeled": [], "test": []}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows[row[0]].append(row)

        def column(part, index, kind):
            return np.array([kind(r[index]) for r in rows[part]])

        def features(part):
            return np.array([[float(v) for v in r[4:]] for r in rows[part]])

        assert np.array_equal(features("labeled"), split.labeled_x)
        assert np.array_equal(features("unlabeled"), split.unlabeled_x)
        assert np.array_equal(features("test"), split.test_x)
        assert np.array_equal(column("labeled", 3, int), split.labeled_y)
        assert [r[2] for r in rows["test"]] == split.test_category
        assert np.array_equal(column("unlabeled", 1, int), split.unlabeled_ids)

    def test_csv_header(self, tmp_path):
        split = generate(SMALL)
        path = tmp_path / "split.csv"
        write_split_csv(split, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("split,id,category,label,x_0")
