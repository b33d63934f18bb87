"""Seeded synthetic open-set scenarios.

In-distribution classes are compact Gaussian clusters ("galaxies") placed
at a fixed radius with a minimum pairwise separation. Seen-OOD clusters
contaminate the unlabeled pool; unseen-OOD clusters appear only in the
test split. One unseen cluster can be placed inside the convex hull of the
galaxies (a broad "between" cluster) to make unseen detection non-trivial.
Augmentations are additive-noise operators over the raw vectors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

CHUNK_ROWS = 256  # rows write_float_rows turns into Python floats at once: bounds its memory


@dataclass(frozen=True)
class ScenarioSpec:
    input_dim: int = 16
    num_classes: int = 4
    labels_per_class: int = 25
    unlabeled_id_per_class: int = 100
    unlabeled_seen_per_cluster: int = 100
    test_id_per_class: int = 50
    test_seen_per_cluster: int = 50
    test_unseen_per_cluster: int = 50
    seen_ood_clusters: int = 2
    unseen_ood_clusters: int = 3
    unseen_between_hull: int = 1   # how many unseen clusters sit inside the ID hull
    id_mean_radius: float = 5.0
    id_scale: float = 0.7
    # 'between' parks each seen cluster on the midpoint direction of a pair of
    # galaxies (void placement, ambiguous for the classifier); 'radial' draws
    # an independent direction like the galaxies themselves.
    seen_placement: str = "between"
    seen_ood_mean_radius: float = 5.0
    seen_ood_scale: float = 0.9
    unseen_ood_mean_radius: float = 6.5
    unseen_ood_scale: float = 0.9
    between_hull_scale: float = 1.6
    min_separation: float = 4.0
    max_placement_tries: int = 500
    sigma_weak: float = 0.15
    sigma_strong: float = 0.8
    strong_dropout: float = 0.2
    seed: int = 0

    def __post_init__(self):
        counts = (self.input_dim, self.num_classes, self.labels_per_class)
        if any(c < 1 for c in counts):
            raise ValueError("input_dim, num_classes, labels_per_class must be >= 1")
        nonneg = (self.unlabeled_id_per_class, self.unlabeled_seen_per_cluster,
                  self.test_id_per_class, self.test_seen_per_cluster,
                  self.test_unseen_per_cluster, self.seen_ood_clusters,
                  self.unseen_ood_clusters, self.unseen_between_hull)
        if any(c < 0 for c in nonneg):
            raise ValueError("counts must be non-negative")
        if self.unseen_between_hull > self.unseen_ood_clusters:
            raise ValueError("unseen_between_hull exceeds unseen_ood_clusters")
        if self.sigma_weak >= self.sigma_strong:
            raise ValueError("sigma_weak must be below sigma_strong")
        if self.seen_placement not in ("between", "radial"):
            raise ValueError("seen_placement must be 'between' or 'radial'")
        if not 0.0 <= self.strong_dropout <= 1.0:
            raise ValueError("strong_dropout must lie in [0, 1]")

    @property
    def unlabeled_rows(self) -> int:
        return (self.num_classes * self.unlabeled_id_per_class
                + self.seen_ood_clusters * self.unlabeled_seen_per_cluster)


class PlacementError(ValueError):
    """No placement of the cluster means keeps them min_separation apart."""


@dataclass
class Split:
    """Generated data. Category columns on unlabeled/test rows are ground
    truth for metrics only; the trainer must not read them."""

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    labeled_ids: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_ids: np.ndarray
    unlabeled_category: list[str]
    test_x: np.ndarray
    test_ids: np.ndarray
    test_category: list[str]
    manifest: dict
    scenario: ScenarioSpec = field(repr=False)


def _place_means(spec: ScenarioSpec, rng: np.random.Generator) -> dict:
    """Rejection-sample cluster means with a pairwise minimum distance.

    The between-hull unseen clusters are exempt: they sit at the mean of
    the galaxy centers on purpose.
    """
    placed: list[np.ndarray] = []

    def place(radius: float) -> np.ndarray:
        for _ in range(spec.max_placement_tries):
            direction = rng.standard_normal(spec.input_dim)
            direction /= np.linalg.norm(direction)
            candidate = radius * direction
            if all(np.linalg.norm(candidate - q) >= spec.min_separation for q in placed):
                placed.append(candidate)
                return candidate
        raise PlacementError("cluster separation constraint unsatisfiable after "
                             f"{spec.max_placement_tries} tries")

    id_means = [place(spec.id_mean_radius) for _ in range(spec.num_classes)]
    if spec.seen_placement == "between" and spec.num_classes >= 2:
        # Deliberately ambiguous: exempt from the separation constraint.
        seen_means = []
        for s in range(spec.seen_ood_clusters):
            a = id_means[s % spec.num_classes]
            b = id_means[(s + 1) % spec.num_classes]
            direction = a + b
            direction = direction / np.linalg.norm(direction)
            seen_means.append(spec.seen_ood_mean_radius * direction)
    else:
        seen_means = [place(spec.seen_ood_mean_radius) for _ in range(spec.seen_ood_clusters)]
    unseen_means = []
    n_outside = spec.unseen_ood_clusters - spec.unseen_between_hull
    for _ in range(n_outside):
        unseen_means.append((place(spec.unseen_ood_mean_radius), spec.unseen_ood_scale))
    hull_center = np.mean(id_means, axis=0) if id_means else np.zeros(spec.input_dim)
    for _ in range(spec.unseen_between_hull):
        jitter = 0.25 * spec.id_scale * rng.standard_normal(spec.input_dim)
        unseen_means.append((hull_center + jitter, spec.between_hull_scale))
    return {"id": id_means, "seen": seen_means, "unseen": unseen_means}


def generate(spec: ScenarioSpec) -> Split:
    """Deterministically generate a labeled/unlabeled/test split."""
    rng = np.random.default_rng(spec.seed)
    means = _place_means(spec, rng)

    next_id = 0

    def draw(mean: np.ndarray, scale: float, count: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal next_id
        x = mean + scale * rng.standard_normal((count, spec.input_dim))
        ids = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        return x, ids

    lx, ly, lids = [], [], []
    for k, mean in enumerate(means["id"]):
        x, ids = draw(mean, spec.id_scale, spec.labels_per_class)
        lx.append(x)
        ly.append(np.full(spec.labels_per_class, k, dtype=np.int64))
        lids.append(ids)

    ux, uids, ucat = [], [], []
    for k, mean in enumerate(means["id"]):
        x, ids = draw(mean, spec.id_scale, spec.unlabeled_id_per_class)
        ux.append(x)
        uids.append(ids)
        ucat.extend([f"id:{k}"] * spec.unlabeled_id_per_class)
    for s, mean in enumerate(means["seen"]):
        x, ids = draw(mean, spec.seen_ood_scale, spec.unlabeled_seen_per_cluster)
        ux.append(x)
        uids.append(ids)
        ucat.extend([f"seen:{s}"] * spec.unlabeled_seen_per_cluster)

    tx, tids, tcat = [], [], []
    for k, mean in enumerate(means["id"]):
        x, ids = draw(mean, spec.id_scale, spec.test_id_per_class)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"id:{k}"] * spec.test_id_per_class)
    for s, mean in enumerate(means["seen"]):
        x, ids = draw(mean, spec.seen_ood_scale, spec.test_seen_per_cluster)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"seen:{s}"] * spec.test_seen_per_cluster)
    for u, (mean, scale) in enumerate(means["unseen"]):
        x, ids = draw(mean, scale, spec.test_unseen_per_cluster)
        tx.append(x)
        tids.append(ids)
        tcat.extend([f"unseen:{u}"] * spec.test_unseen_per_cluster)

    def stack(chunks, width):
        if not chunks:
            return np.zeros((0, width))
        return np.vstack(chunks)

    def cat_ids(chunks):
        if not chunks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(chunks)

    manifest = {
        "seed": spec.seed,
        "input_dim": spec.input_dim,
        "clusters": (
            [{"kind": "id", "index": k, "mean": m.tolist(), "scale": spec.id_scale}
             for k, m in enumerate(means["id"])]
            + [{"kind": "seen", "index": s, "mean": m.tolist(), "scale": spec.seen_ood_scale}
               for s, m in enumerate(means["seen"])]
            + [{"kind": "unseen", "index": u, "mean": m.tolist(), "scale": sc}
               for u, (m, sc) in enumerate(means["unseen"])]
        ),
        "counts": {
            "labeled": spec.num_classes * spec.labels_per_class,
            "unlabeled": spec.unlabeled_rows,
            "test": (spec.num_classes * spec.test_id_per_class
                     + spec.seen_ood_clusters * spec.test_seen_per_cluster
                     + spec.unseen_ood_clusters * spec.test_unseen_per_cluster),
        },
        "spec": asdict(spec),
    }
    return Split(
        labeled_x=stack(lx, spec.input_dim), labeled_y=cat_ids(ly), labeled_ids=cat_ids(lids),
        unlabeled_x=stack(ux, spec.input_dim), unlabeled_ids=cat_ids(uids),
        unlabeled_category=ucat,
        test_x=stack(tx, spec.input_dim), test_ids=cat_ids(tids), test_category=tcat,
        manifest=manifest, scenario=spec,
    )


def augment(x: np.ndarray, kind: str, rng: np.random.Generator, *,
            sigma_weak: float, sigma_strong: float, strong_dropout: float) -> np.ndarray:
    """Stochastic views: weak/weak2 add isotropic noise, strong also drops
    random coordinates (before adding its noise)."""
    x = np.asarray(x, dtype=np.float64)
    if kind in ("weak", "weak2"):
        return x + sigma_weak * rng.standard_normal(x.shape)
    if kind == "strong":
        keep = rng.random(x.shape) >= strong_dropout
        return x * keep + sigma_strong * rng.standard_normal(x.shape)
    raise ValueError(f"unknown augmentation kind '{kind}'")


def augment_views(x: np.ndarray, kinds: list[str], rng: np.random.Generator,
                  spec: ScenarioSpec) -> dict[str, np.ndarray]:
    """Independent draws per view, in the order given."""
    return {kind: augment(x, kind, rng, sigma_weak=spec.sigma_weak,
                          sigma_strong=spec.sigma_strong,
                          strong_dropout=spec.strong_dropout)
            for kind in kinds}


def audit_no_leakage(split: Split) -> None:
    """Assert no unseen-OOD sample is reachable from training-visible data."""
    train_ids = set(split.labeled_ids.tolist()) | set(split.unlabeled_ids.tolist())
    unseen_ids = {int(i) for i, c in zip(split.test_ids, split.test_category)
                  if c.startswith("unseen:")}
    overlap = train_ids & unseen_ids
    if overlap:
        raise AssertionError(f"unseen-OOD ids leaked into training data: {sorted(overlap)[:5]}")
    if any(c.startswith("unseen:") for c in split.unlabeled_category):
        raise AssertionError("unseen-OOD category found in the unlabeled pool")


def write_float_rows(path, columns: list[str], name: str, parts) -> None:
    """Write a CSV with one line per block row: its prefix string, then its floats' repr
    (columns name_0, ...). parts pairs an iterable of prefixes with each block. The bytes
    are csv.writer's as long as no field needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns + [f"{name}_{j}" for j in range(parts[0][1].shape[1])]) + "\r\n")
        for prefixes, block in parts:  # both lazy, so no whole-file Python objects
            rows = (row for start in range(0, len(block), CHUNK_ROWS)
                    for row in block[start:start + CHUNK_ROWS].tolist())
            fh.writelines(f"{p},{','.join(map(repr, row))}\r\n" for p, row in zip(prefixes, rows))


def write_split_csv(split: Split, path) -> None:
    """One row per sample: (split, id, category, label-or-blank, x_0..x_{d-1})."""
    labeled = zip(map(int, split.labeled_ids), map(int, split.labeled_y))
    unlabeled = zip(map(int, split.unlabeled_ids), split.unlabeled_category)
    test = zip(map(int, split.test_ids), split.test_category)
    write_float_rows(path, ["split", "id", "category", "label"], "x", [
        ((f"labeled,{i},id:{y},{y}" for i, y in labeled), split.labeled_x),
        ((f"unlabeled,{i},{c}," for i, c in unlabeled), split.unlabeled_x),
        ((f"test,{i},{c}," for i, c in test), split.test_x)])


def write_manifest(split: Split, path) -> None:
    with open(path, "w") as fh:
        json.dump(split.manifest, fh, indent=2)
