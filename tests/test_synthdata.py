import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from skipalign import synthdata
from skipalign.config import resolve_config
from skipalign.metrics import write_embedding_dump
from skipalign.net import init_params
from skipalign.synthdata import (CHUNK_ROWS, GEOMETRY, MAX_PLACEMENT_TRIES, PlacementError,
                                 ScenarioSpec, Split, augment_views, cluster_manifest, generate,
                                 write_split_csv)
from test_metrics import (plain_arrays, reference_embedding_dump, row_categories,
                          small_scenario, traced_peak)

SMALL = ScenarioSpec(input_dim=6, num_classes=3, labels_per_class=5,
                     unlabeled_id_per_class=8, unlabeled_seen_per_cluster=6,
                     test_id_per_class=4, test_seen_per_cluster=3,
                     test_unseen_per_cluster=3, seen_ood_clusters=2,
                     unseen_ood_clusters=2, unseen_between_hull=1, seed=0)


def audit_no_leakage(split: Split) -> None:
    """Assert no unseen-OOD sample is reachable from training-visible data."""
    train_ids = set(split.labeled_ids.tolist()) | set(split.unlabeled_ids.tolist())
    unseen = np.array([kind == "unseen" for kind, *_ in split.clusters])
    unseen_ids = set(split.test_ids[unseen[split.test_cluster]].tolist())
    overlap = train_ids & unseen_ids
    if overlap:
        raise AssertionError(f"unseen-OOD ids leaked into training data: {sorted(overlap)[:5]}")
    if unseen[split.unlabeled_cluster].any():
        raise AssertionError("unseen-OOD category found in the unlabeled pool")


class TestGenerate:
    def test_exact_counts(self):
        split = generate(SMALL)
        assert split.labeled_x.shape == (15, 6)
        assert split.labeled_y.shape == (15,)
        assert split.unlabeled_x.shape == (3 * 8 + 2 * 6, 6)
        assert split.test_x.shape == (3 * 4 + 2 * 3 + 2 * 3, 6)
        assert split.unlabeled_cluster.shape == (split.unlabeled_x.shape[0],)
        assert split.test_cluster.shape == (split.test_x.shape[0],)

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
        assert np.array_equal(a.test_cluster, b.test_cluster)

    def test_different_seed_differs(self):
        b = generate(dataclasses.replace(SMALL, seed=1))
        assert not np.array_equal(generate(SMALL).labeled_x, b.labeled_x)

    def test_degenerate_closed_set(self):
        spec = dataclasses.replace(SMALL, seen_ood_clusters=0, unseen_ood_clusters=0,
                                   unseen_between_hull=0, unlabeled_seen_per_cluster=0,
                                   test_seen_per_cluster=0, test_unseen_per_cluster=0)
        split = generate(spec)
        assert [kind for kind, *_ in split.clusters] == ["id"] * spec.num_classes
        assert all(c.startswith("id:") for c in row_categories(split, split.unlabeled_cluster))
        assert all(c.startswith("id:") for c in row_categories(split, split.test_cluster))

    def test_unique_ids(self):
        split = generate(SMALL)
        all_ids = np.concatenate([split.labeled_ids, split.unlabeled_ids, split.test_ids])
        assert len(set(all_ids.tolist())) == all_ids.size

    def test_no_leakage(self):
        audit_no_leakage(generate(SMALL))

    def test_separation_constraint_error(self):
        # A separation wider than the galaxies' radius allows must fail loudly.
        spec = dataclasses.replace(SMALL, input_dim=2, num_classes=6, min_separation=20.0)
        with pytest.raises(ValueError, match="separation"):
            generate(spec)

    def test_id_means_respect_separation(self):
        split = generate(SMALL)
        means = [mean for kind, _, mean, _ in split.clusters if kind == "id"]
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                assert np.linalg.norm(means[i] - means[j]) >= SMALL.min_separation

    def test_between_hull_cluster_sits_inside(self):
        split = generate(SMALL)
        id_means = [mean for kind, _, mean, _ in split.clusters if kind == "id"]
        unseen = [mean for kind, _, mean, _ in split.clusters if kind == "unseen"]
        hull_center = np.mean(id_means, axis=0)
        # the last unseen cluster is the between-hull one
        assert np.linalg.norm(unseen[-1] - hull_center) < 2.0

    def test_manifest_counts(self):
        # The manifest's clusters list each cluster once; the parts' sizes follow from the spec.
        split = generate(SMALL)
        kinds = [c["kind"] for c in cluster_manifest(split)]
        assert kinds == ["id"] * 3 + ["seen"] * 2 + ["unseen"] * 2
        assert (len(split.labeled_ids), len(split.unlabeled_ids), len(split.test_ids)) == (
            15, 36, 24)


def reference_generate(spec):
    """The per-kind draw loops the cluster-table `generate` replaced: the draw
    order, ids and categories it must keep, as a Split, and the manifest's clusters
    with each part's row count."""
    rng = np.random.default_rng(spec.seed)
    (id_radius, id_scale), (seen_radius, seen_scale) = GEOMETRY["id"], GEOMETRY["seen"]
    (unseen_radius, unseen_scale), between_scale = GEOMETRY["unseen"], GEOMETRY["between"][1]
    placed = []

    def length(v):  # a numpy sum of squares: BLAS's dot would round per kernel
        return np.sqrt((v * v).sum())

    def place(radius):
        for _ in range(MAX_PLACEMENT_TRIES):
            direction = rng.standard_normal(spec.input_dim)
            direction /= length(direction)
            candidate = radius * direction
            if all(length(candidate - q) >= spec.min_separation for q in placed):
                placed.append(candidate)
                return candidate
        raise PlacementError("unsatisfiable")

    id_means = [place(id_radius) for _ in range(spec.num_classes)]
    if spec.num_classes >= 2:
        seen_means = []
        for s in range(spec.seen_ood_clusters):
            a = id_means[s % spec.num_classes]
            b = id_means[(s + 1) % spec.num_classes]
            direction = a + b
            direction = direction / length(direction)
            seen_means.append(seen_radius * direction)
    else:
        seen_means = [place(seen_radius) for _ in range(spec.seen_ood_clusters)]
    unseen_means = []
    for _ in range(spec.unseen_ood_clusters - spec.unseen_between_hull):
        unseen_means.append((place(unseen_radius), unseen_scale))
    hull_center = np.mean(id_means, axis=0)
    for _ in range(spec.unseen_between_hull):
        jitter = 0.25 * id_scale * rng.standard_normal(spec.input_dim)
        unseen_means.append((hull_center + jitter, between_scale))

    next_id = 0

    def draw(mean, scale, count):
        nonlocal next_id
        x = mean + scale * rng.standard_normal((count, spec.input_dim))
        ids = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        return x, ids

    lx, ly, lids = [], [], []
    for k, mean in enumerate(id_means):
        x, ids = draw(mean, id_scale, spec.labels_per_class)
        lx.append(x)
        ly.append(np.full(spec.labels_per_class, k, dtype=np.int64))
        lids.append(ids)
    ux, uids, ucat = [], [], []
    for k, mean in enumerate(id_means):
        x, ids = draw(mean, id_scale, spec.unlabeled_id_per_class)
        ux.append(x)
        uids.append(ids)
        ucat.extend([f"id:{k}"] * spec.unlabeled_id_per_class)
    for s, mean in enumerate(seen_means):
        x, ids = draw(mean, seen_scale, spec.unlabeled_seen_per_cluster)
        ux.append(x)
        uids.append(ids)
        ucat.extend([f"seen:{s}"] * spec.unlabeled_seen_per_cluster)
    tx, tids, tcat = [], [], []
    for k, mean in enumerate(id_means):
        x, ids = draw(mean, id_scale, spec.test_id_per_class)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"id:{k}"] * spec.test_id_per_class)
    for s, mean in enumerate(seen_means):
        x, ids = draw(mean, seen_scale, spec.test_seen_per_cluster)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"seen:{s}"] * spec.test_seen_per_cluster)
    for u, (mean, scale) in enumerate(unseen_means):
        x, ids = draw(mean, scale, spec.test_unseen_per_cluster)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"unseen:{u}"] * spec.test_unseen_per_cluster)

    manifest = {
        "clusters": (
            [{"kind": "id", "index": k, "mean": m.tolist(), "scale": id_scale}
             for k, m in enumerate(id_means)]
            + [{"kind": "seen", "index": s, "mean": m.tolist(), "scale": seen_scale}
               for s, m in enumerate(seen_means)]
            + [{"kind": "unseen", "index": u, "mean": m.tolist(), "scale": sc}
               for u, (m, sc) in enumerate(unseen_means)]
        ),
        "counts": {
            "labeled": spec.num_classes * spec.labels_per_class,
            "unlabeled": (spec.num_classes * spec.unlabeled_id_per_class
                          + spec.seen_ood_clusters * spec.unlabeled_seen_per_cluster),
            "test": (spec.num_classes * spec.test_id_per_class
                     + spec.seen_ood_clusters * spec.test_seen_per_cluster
                     + spec.unseen_ood_clusters * spec.test_unseen_per_cluster),
        },
    }
    clusters = [(c["kind"], c["index"], np.array(c["mean"]), c["scale"])
                for c in manifest["clusters"]]
    code = {f"{kind}:{index}": k for k, (kind, index, *_) in enumerate(clusters)}
    split = Split(
        labeled_x=np.vstack(lx), labeled_y=np.concatenate(ly), labeled_ids=np.concatenate(lids),
        unlabeled_x=np.vstack(ux), unlabeled_ids=np.concatenate(uids),
        unlabeled_cluster=np.array([code[c] for c in ucat], dtype=np.int64),
        test_x=np.vstack(tx), test_ids=np.concatenate(tids),
        test_cluster=np.array([code[c] for c in tcat], dtype=np.int64),
        clusters=clusters, scenario=spec)
    return split, manifest


# Specs at the edges of the cluster table: no OOD clusters, one galaxy (the
# seen clusters are placed like galaxies), two (the fewest a seen cluster sits
# between), empty parts, and every unseen cluster between the galaxies.
EDGE_SPECS = {
    "closed-set": dataclasses.replace(
        SMALL, seen_ood_clusters=0, unseen_ood_clusters=0, unseen_between_hull=0,
        unlabeled_seen_per_cluster=0, test_seen_per_cluster=0, test_unseen_per_cluster=0),
    "one-class": dataclasses.replace(SMALL, num_classes=1),
    "two-class": dataclasses.replace(SMALL, num_classes=2),
    "empty-pool": dataclasses.replace(SMALL, unlabeled_id_per_class=0,
                                      unlabeled_seen_per_cluster=0),
    "empty-test": dataclasses.replace(SMALL, test_id_per_class=0, test_seen_per_cluster=0,
                                      test_unseen_per_cluster=0),
    "all-between": dataclasses.replace(SMALL, unseen_between_hull=SMALL.unseen_ood_clusters),
}


class TestDrawOrder:
    @pytest.mark.parametrize("spec", [dataclasses.replace(SMALL, seed=seed) for seed in range(5)]
                             + list(EDGE_SPECS.values()),
                             ids=[f"seed-{seed}" for seed in range(5)] + list(EDGE_SPECS))
    def test_matches_reference_generate(self, spec):
        split, (reference, manifest) = generate(spec), reference_generate(spec)
        for f in dataclasses.fields(Split):
            got, want = getattr(split, f.name), getattr(reference, f.name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert np.array_equal(got, want), f.name
            elif f.name == "clusters":
                assert [(k, i, m.tolist(), s) for k, i, m, s in got] == [
                    (k, i, m.tolist(), s) for k, i, m, s in want]
            else:
                assert got == want, f.name
        assert json.dumps(cluster_manifest(split)) == json.dumps(manifest["clusters"])
        assert manifest["counts"] == {"labeled": len(split.labeled_ids),
                                      "unlabeled": len(split.unlabeled_ids),
                                      "test": len(split.test_ids)}


class TestGenerateMemory:
    def test_each_part_is_filled_in_place(self):
        # The 18,000-row test part's x is 2.3 MB; a list of cluster blocks
        # stacked after drawing peaked at 5.2 MB.
        large = small_scenario(test_id_per_class=2000, test_seen_per_cluster=2000,
                               test_unseen_per_cluster=2000)
        generate(SMALL)  # first-call allocations are not generate's
        assert traced_peak(generate, large) < 4_000_000


class TestSpecValidation:
    def test_weak_noise_must_be_below_strong(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, sigma_weak=1.0, sigma_strong=0.5)

    def test_between_count_bounded(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, unseen_between_hull=5)


def per_view_reference(labeled, unlabeled, rng, spec):
    """The views as separate draws, one operator call per view, then stacked:
    the form augment_views had before it drew each noise kind once."""
    def augment(x, kind):
        x = np.asarray(x, dtype=np.float64)
        if kind in ("weak", "weak2"):
            return x + spec.sigma_weak * rng.standard_normal(x.shape)
        keep = rng.random(x.shape) >= spec.strong_dropout
        return x * keep + spec.sigma_strong * rng.standard_normal(x.shape)

    return np.concatenate([augment(labeled, "weak"), augment(unlabeled, "weak"),
                           augment(unlabeled, "weak2"), augment(unlabeled, "strong")])


class TestAugment:
    @pytest.mark.parametrize("b, u, d", [(16, 32, 16), (4, 8, 6), (3, 1, 5), (1, 1, 1)])
    @pytest.mark.parametrize("noise", [{}, {"sigma_weak": 0.0}, {"strong_dropout": 0.0},
                                       {"strong_dropout": 1.0}])
    def test_matches_per_view_reference(self, b, u, d, noise):
        spec = dataclasses.replace(SMALL, **noise)
        for seed in range(4):
            data = np.random.default_rng(100 + seed)
            labeled, unlabeled = data.standard_normal((b, d)), data.standard_normal((u, d))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = augment_views(labeled, unlabeled, rng, spec)
            want = per_view_reference(labeled, unlabeled, ref_rng, spec)
            assert got.dtype == want.dtype and got.shape == (b + 3 * u, d)
            assert got.tobytes() == want.tobytes()
            # The same draws, so the generator is left in the same state.
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(0)
        x, u = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
        spec = dataclasses.replace(SMALL, sigma_weak=0.0, sigma_strong=1.0, strong_dropout=0.5)
        out = augment_views(x, u, np.random.default_rng(1), spec)
        assert np.array_equal(out[:4 + 2 * 2], np.concatenate([x, u, u]))

    def test_weak_views_are_independent_draws(self):
        rng = np.random.default_rng(2)
        x = np.zeros((3, 4))
        spec = dataclasses.replace(SMALL, sigma_weak=0.3, sigma_strong=1.0, strong_dropout=0.2)
        out = augment_views(x, x, rng, spec)
        a, b = out[3:6], out[6:9]  # u_w and u_w2
        assert not np.array_equal(a, b)

    def test_full_dropout_leaves_only_noise(self):
        base = np.full((5, 4), 7.0)
        spec = dataclasses.replace(SMALL, sigma_weak=0.1, sigma_strong=0.5, strong_dropout=1.0)
        rng_a = np.random.default_rng(3)
        out = augment_views(base[:2], base, rng_a, spec)[2 + 2 * 5:]
        # reproduce the operator: all coordinates dropped, noise remains
        rng_b = np.random.default_rng(3)
        _ = rng_b.standard_normal((2 + 2 * 5, 4))  # the weak views' draw
        _ = rng_b.random(base.shape)
        noise = 0.5 * rng_b.standard_normal(base.shape)
        np.testing.assert_allclose(out, noise, atol=1e-15)


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
        unlabeled_category = row_categories(split, split.unlabeled_cluster)
        for i in range(split.unlabeled_x.shape[0]):
            writer.writerow(["unlabeled", int(split.unlabeled_ids[i]), unlabeled_category[i], ""]
                            + [repr(float(v)) for v in split.unlabeled_x[i]])
        test_category = row_categories(split, split.test_cluster)
        for i in range(split.test_x.shape[0]):
            writer.writerow(["test", int(split.test_ids[i]), test_category[i], ""]
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
        assert [r[2] for r in rows["test"]] == row_categories(split, split.test_cluster)
        assert np.array_equal(column("unlabeled", 1, int), split.unlabeled_ids)

    def test_csv_header(self, tmp_path):
        split = generate(SMALL)
        path = tmp_path / "split.csv"
        write_split_csv(split, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("split,id,category,label,x_0")


def force_workers(monkeypatch, cores, chunk_rows):
    """Make write_float_rows see `cores` usable cores and cut `chunk_rows`-row chunks.
    Returns the list of the first row of each range handed to a child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(synthdata, "CHUNK_ROWS", chunk_rows)
    starts = []
    fork_rows = synthdata._fork_rows

    def recording(tmp, encoding, parts, lo, hi):
        starts.append(lo)
        return fork_rows(tmp, encoding, parts, lo, hi)
    monkeypatch.setattr(synthdata, "_fork_rows", recording)
    return starts


def default_params_and_split():
    cfg = resolve_config({"seed": 0})
    return init_params(cfg.net), generate(cfg.scenario)


def assert_split_bytes(split, tmp_path):
    write_split_csv(split, tmp_path / "split.csv")
    reference_split_csv(split, tmp_path / "reference.csv")
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestSplitWriter:
    """write_float_rows cuts its rows into one range per usable core and has forked
    children format all but the first; the bytes stay the single writer's."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_bytes_for_any_worker_count(self, tmp_path, monkeypatch, cores):
        starts = force_workers(monkeypatch, cores, 16)
        default = generate(ScenarioSpec())  # 100 labeled, 600 unlabeled, 450 test rows
        for split in (default, with_edge_floats(default)):
            starts.clear()
            assert_split_bytes(split, tmp_path)
            assert len(starts) == cores - 1
            # every range starts inside a part, and inside one of its 16-row chunks
            assert all(start % 16 and start not in (100, 700) for start in starts)
        # 100 labeled, 350 unlabeled and 450 test rows: 2 and 4 ranges start one where
        # the test part starts.
        boundary = dataclasses.replace(default, unlabeled_x=default.unlabeled_x[:350],
                                       unlabeled_ids=default.unlabeled_ids[:350],
                                       unlabeled_cluster=default.unlabeled_cluster[:350])
        starts.clear()
        assert_split_bytes(boundary, tmp_path)
        assert len(starts) == cores - 1
        assert (450 in starts) == (cores in (2, 4))

        params, split = default_params_and_split()
        z, norms = plain_arrays(params, split)
        edge_z = z.copy()
        edge_z.flat[:len(EDGE_FLOATS)] = EDGE_FLOATS
        edge_norms = np.resize(EDGE_FLOATS, split.test_x.shape[0])
        monkeypatch.setattr(synthdata, "CHUNK_ROWS", 8)
        for arrays in ((z, norms), (edge_z, edge_norms)):
            starts.clear()
            write_embedding_dump(split, *arrays, tmp_path / "emb.csv")
            reference_embedding_dump(split, *arrays, tmp_path / "reference.csv")
            assert (tmp_path / "emb.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
            assert len(starts) == cores - 1

    def test_failed_fork_gives_the_same_bytes(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 4, 16)

        def failing_fork():
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", failing_fork)
        assert_split_bytes(generate(ScenarioSpec()), tmp_path)

    def test_failed_child_gives_the_same_bytes_or_error(self, tmp_path, monkeypatch):
        starts = force_workers(monkeypatch, 4, 16)
        parent, format_rows = os.getpid(), synthdata._format_rows
        split = generate(ScenarioSpec())

        # The children of the second and fourth of four ranges fail: the parent formats
        # those two between the bytes of the first and third.
        def failing_in_two_children(out, parts, lo, hi):
            if os.getpid() != parent and lo in starts[::2]:
                raise RuntimeError("formatting failed in a child")
            format_rows(out, parts, lo, hi)
        monkeypatch.setattr(synthdata, "_format_rows", failing_in_two_children)
        assert_split_bytes(split, tmp_path)
        assert len(starts) == 3

        # Formatting that fails past the first range fails in the parent too, with its type.
        def failing_past_first(out, parts, lo, hi):
            if lo > 0:
                raise KeyError("formatting failed")
            format_rows(out, parts, lo, hi)
        monkeypatch.setattr(synthdata, "_format_rows", failing_past_first)
        with pytest.raises(KeyError, match="formatting failed"):
            write_split_csv(split, tmp_path / "failed.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "failed.csv", "reference.csv", "split.csv"]

    def test_parent_error_leaves_no_child_or_file(self, tmp_path, monkeypatch):
        starts = force_workers(monkeypatch, 4, 16)
        parent, format_rows = os.getpid(), synthdata._format_rows

        def failing_in_parent(out, parts, lo, hi):
            if os.getpid() == parent:
                raise PermissionError(13, "Permission denied")
            format_rows(out, parts, lo, hi)
        monkeypatch.setattr(synthdata, "_format_rows", failing_in_parent)
        with pytest.raises(PermissionError):
            write_split_csv(generate(ScenarioSpec()), tmp_path / "split.csv")
        assert len(starts) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [p.name for p in tmp_path.iterdir()] == ["split.csv"]

    def test_small_blocks_never_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

        def no_fork():
            pytest.fail("a block too small for two ranges forked")
        monkeypatch.setattr(os, "fork", no_fork)
        write_split_csv(generate(SMALL), tmp_path / "split.csv")
        params, default = default_params_and_split()
        assert default.test_x.shape[0] < 2 * synthdata.RANGE_CHUNKS * CHUNK_ROWS
        z, norms = plain_arrays(params, default)
        write_embedding_dump(default, z, norms, tmp_path / "emb.csv")
        # 447 test rows are one short of two ranges of RANGE_CHUNKS 28-row chunks.
        monkeypatch.setattr(synthdata, "CHUNK_ROWS", 28)
        rows = 2 * synthdata.RANGE_CHUNKS * 28 - 1
        short = dataclasses.replace(default, test_x=default.test_x[:rows],
                                    test_ids=default.test_ids[:rows],
                                    test_cluster=default.test_cluster[:rows])
        write_embedding_dump(short, z[:rows], norms[:rows], tmp_path / "emb.csv")
