"""Seeded synthetic open-set scenarios.

In-distribution classes are compact Gaussian clusters ("galaxies") placed
at a fixed radius with a minimum pairwise separation. Seen-OOD clusters
contaminate the unlabeled pool; unseen-OOD clusters appear only in the
test split. One unseen cluster can be placed inside the convex hull of the
galaxies (a broad "between" cluster) to make unseen detection non-trivial.
Augmentations are additive-noise operators over the raw vectors.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .heads import norm

CHUNK_ROWS = 256  # rows write_float_rows formats at once: bounds its memory
# Fewest chunks in one of write_float_rows' ranges: on 2 cores a forked range of 1,000
# rows was slower than formatting it in the process, one of 1,700 rows faster.
RANGE_CHUNKS = 8
MAX_PLACEMENT_TRIES = 500  # random directions tried per cluster mean before PlacementError
# Each cluster kind's (mean radius, scale); "between" clusters sit at the galaxies' mean.
GEOMETRY = {"id": (5.0, 0.7), "seen": (5.0, 0.9), "unseen": (6.5, 0.9), "between": (None, 1.6)}


@dataclass(frozen=True)
class ScenarioSpec:
    """Settable scenario values; each cluster kind's radius and scale are in GEOMETRY."""
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
    min_separation: float = 4.0
    sigma_weak: float = 0.15
    sigma_strong: float = 0.8
    strong_dropout: float = 0.2
    seed: int = 0

    def __post_init__(self):
        counts = (self.input_dim, self.num_classes, self.labels_per_class)
        if any(c < 1 for c in counts):
            raise ValueError("input_dim, num_classes, labels_per_class must be >= 1")
        for name in ("unlabeled_id_per_class", "unlabeled_seen_per_cluster", "test_id_per_class",
                     "test_seen_per_cluster", "test_unseen_per_cluster", "seen_ood_clusters",
                     "unseen_ood_clusters", "unseen_between_hull"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.unseen_between_hull > self.unseen_ood_clusters:
            raise ValueError("unseen_between_hull exceeds unseen_ood_clusters")
        if self.sigma_weak >= self.sigma_strong:
            raise ValueError("sigma_weak must be below sigma_strong")
        if not 0.0 <= self.strong_dropout <= 1.0:
            raise ValueError("strong_dropout must lie in [0, 1]")

    @property
    def rows_per_cluster(self) -> dict[str, dict[str, int]]:
        """Each part's rows per cluster, by the cluster's kind; none of a kind not named."""
        return {"labeled": {"id": self.labels_per_class},
                "unlabeled": {"id": self.unlabeled_id_per_class,
                              "seen": self.unlabeled_seen_per_cluster},
                "test": {"id": self.test_id_per_class, "seen": self.test_seen_per_cluster,
                         "unseen": self.test_unseen_per_cluster}}

    @property
    def part_rows(self) -> dict[str, int]:
        """Each part's row count: its rows per cluster times the clusters of each kind."""
        clusters = {"id": self.num_classes, "seen": self.seen_ood_clusters,
                    "unseen": self.unseen_ood_clusters}
        return {part: sum(n * clusters[kind] for kind, n in per_kind.items())
                for part, per_kind in self.rows_per_cluster.items()}


class PlacementError(ValueError):
    """No placement of the cluster means keeps them min_separation apart."""


@dataclass
class Split:
    """Generated data. `clusters` is the `_place_means` cluster table, and each
    unlabeled and test row's code indexes the cluster it was drawn from. The
    table, the codes and the test rows are for evaluation only: `trainer.train`
    reads none of them."""

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    labeled_ids: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_ids: np.ndarray
    unlabeled_cluster: np.ndarray
    test_x: np.ndarray
    test_ids: np.ndarray
    test_cluster: np.ndarray
    clusters: list[tuple]
    scenario: ScenarioSpec = field(repr=False)

    def categories(self, codes: np.ndarray) -> np.ndarray:
        """The "<kind>:<index>" name of each row's cluster, for rows with these codes."""
        return np.array([f"{k}:{i}" for k, i, *_ in self.clusters], dtype=object)[codes]


def _place_means(spec: ScenarioSpec, rng: np.random.Generator) -> list[tuple]:
    """The scenario's cluster table: one (kind, index, mean, scale) row per
    cluster, in the order the means are drawn, each kind in index order: the
    galaxies (kind "id"), the seen clusters, the unseen clusters outside the
    hull, then those between.

    Means are rejection-sampled with a pairwise minimum distance. Each seen
    cluster sits on the midpoint direction of a pair of galaxies (void
    placement, ambiguous for the classifier), exempt from the constraint; a
    single galaxy makes no pair, so then the seen clusters are placed like the
    galaxies. The between-hull unseen clusters are exempt as well: they sit at
    the mean of the galaxy centers on purpose.
    """
    placed: list[np.ndarray] = []

    def place(radius: float) -> np.ndarray:
        for _ in range(MAX_PLACEMENT_TRIES):
            direction = rng.standard_normal(spec.input_dim)
            direction /= norm(direction)
            candidate = radius * direction
            if all(norm(candidate - q) >= spec.min_separation for q in placed):
                placed.append(candidate)
                return candidate
        raise PlacementError("cluster separation constraint unsatisfiable after "
                             f"{MAX_PLACEMENT_TRIES} tries")

    (id_radius, id_scale), (seen_radius, seen_scale) = GEOMETRY["id"], GEOMETRY["seen"]
    galaxies = [place(id_radius) for _ in range(spec.num_classes)]
    table = [("id", k, mean, id_scale) for k, mean in enumerate(galaxies)]
    for s in range(spec.seen_ood_clusters):
        if spec.num_classes >= 2:
            direction = galaxies[s % spec.num_classes] + galaxies[(s + 1) % spec.num_classes]
            mean = seen_radius * (direction / norm(direction))
        else:
            mean = place(seen_radius)
        table.append(("seen", s, mean, seen_scale))
    n_outside = spec.unseen_ood_clusters - spec.unseen_between_hull
    hull_center = np.mean(galaxies, axis=0)
    for u in range(spec.unseen_ood_clusters):
        if u < n_outside:
            mean, scale = place(GEOMETRY["unseen"][0]), GEOMETRY["unseen"][1]
        else:
            jitter = 0.25 * id_scale * rng.standard_normal(spec.input_dim)
            mean, scale = hull_center + jitter, GEOMETRY["between"][1]
        table.append(("unseen", u, mean, scale))
    return table


def generate(spec: ScenarioSpec) -> Split:
    """Deterministically generate a labeled/unlabeled/test split.

    Each part is one pass over the `_place_means` cluster table, in its order,
    drawing the part's `rows_per_cluster` count for the cluster's kind (none for
    a kind the part lacks) into one preallocated array per part. Ids count up
    through the parts in order; a row's code is its cluster's position in the
    table, and a labeled row's label its code, as the galaxies lead the table.
    """
    rng = np.random.default_rng(spec.seed)
    clusters = _place_means(spec, rng)
    parts, first = [], 0
    for per_kind in spec.rows_per_cluster.values():
        sizes = [per_kind.get(kind, 0) for kind, *_ in clusters]
        rows = sum(sizes)
        x = np.empty((rows, spec.input_dim))
        hi = 0
        for (_, _, mean, scale), n in zip(clusters, sizes):
            lo, hi = hi, hi + n
            block = rng.standard_normal((n, spec.input_dim))
            np.multiply(scale, block, out=block)
            np.add(mean, block, out=x[lo:hi])  # mean + scale * draw, the same floats
        codes = np.repeat(np.arange(len(clusters)), sizes)
        parts.append((x, np.arange(first, first + rows, dtype=np.int64), codes))
        first += rows
    (lx, lids, lcodes), (ux, uids, ucodes), (tx, tids, tcodes) = parts
    return Split(labeled_x=lx, labeled_y=lcodes, labeled_ids=lids,
                 unlabeled_x=ux, unlabeled_ids=uids, unlabeled_cluster=ucodes,
                 test_x=tx, test_ids=tids, test_cluster=tcodes,
                 clusters=clusters, scenario=spec)


def augment_views(labeled: np.ndarray, unlabeled: np.ndarray, rng: np.random.Generator,
                  spec: ScenarioSpec) -> np.ndarray:
    """A step's stacked views [x_w; u_w; u_w2; u_s]. The weak views add isotropic noise,
    one draw over their rows; the strong view drops random coordinates, then adds noise."""
    b, u = len(labeled), len(unlabeled)
    views = np.concatenate([labeled, unlabeled, unlabeled, unlabeled])
    views[:b + 2 * u] += spec.sigma_weak * rng.standard_normal((b + 2 * u, views.shape[1]))
    strong = views[b + 2 * u:]
    strong *= rng.random(strong.shape) >= spec.strong_dropout
    strong += spec.sigma_strong * rng.standard_normal(strong.shape)
    return views


def _format_rows(out, parts, lo: int, hi: int) -> None:
    """Write rows lo..hi-1, counted through the parts in order, CHUNK_ROWS at a time."""
    for template, columns, block in parts:
        for start in range(max(lo, 0), min(hi, len(block)), CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, hi, len(block))
            fields = zip(*(c[start:stop].tolist() for c in columns))
            out.writelines(f"{template.format(*f)},{','.join(map(repr, row))}\r\n"
                           for f, row in zip(fields, block[start:stop].tolist()))
        lo, hi = lo - len(block), hi - len(block)


def _fork_rows(tmp, encoding: str, parts, lo: int, hi: int) -> int:
    """Fork a child that formats rows lo..hi-1 into tmp and exits 0; return its pid. The
    child runs no BLAS call, never returns, and never flushes the files it inherited."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(tmp.fileno(), "w", newline="", encoding=encoding, closefd=False) as out:
                _format_rows(out, parts, lo, hi)
            status = 0
        finally:
            os._exit(status)
    return pid


def write_float_rows(path, columns: list[str], name: str, parts) -> None:
    """Write a CSV with one line per block row: template.format(*its column values), then its
    floats' repr (columns name_0, ...), for parts of (template, column arrays, block). The bytes are
    csv.writer's as long as no field needs quoting. The rows go in one contiguous range per
    usable core, of RANGE_CHUNKS chunks or more; forked children format all ranges but the
    first into unnamed temporary files, appended in order. No child outlives the call."""
    rows = sum(len(block) for _, _, block in parts)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cores, rows // (RANGE_CHUNKS * CHUNK_ROWS)))
    ranges = [(rows * k // workers, rows * (k + 1) // workers) for k in range(workers)]
    children = {}  # range index -> (pid, temporary file) of its child, until reaped
    with open(path, "w", newline="") as fh, contextlib.ExitStack() as temps:
        try:
            for k in range(1, workers):
                tmp = temps.enter_context(tempfile.TemporaryFile(
                    buffering=0, dir=os.path.dirname(os.path.abspath(path))))
                with contextlib.suppress(OSError):
                    children[k] = _fork_rows(tmp, fh.encoding, parts, *ranges[k]), tmp
            fh.write(",".join(columns + [f"{name}_{j}" for j in range(parts[0][2].shape[1])])
                     + "\r\n")
            for k, (lo, hi) in enumerate(ranges):
                status = os.waitpid(children[k][0], 0)[1] if k in children else None
                tmp = children.pop(k, (None, None))[1]
                if status == 0:
                    fh.flush()
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh.buffer)
                else:
                    _format_rows(fh, parts, lo, hi)
        finally:
            for pid, _ in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write_split_csv(split: Split, path) -> None:
    """One row per sample: (split, id, category, label-or-blank, x_0..x_{d-1}). A labeled
    row's class index is its cluster code: the galaxies lead the table, in index order."""
    write_float_rows(path, ["split", "id", "category", "label"], "x", [
        ("labeled,{},{},{}", (split.labeled_ids, split.categories(split.labeled_y),
                              split.labeled_y), split.labeled_x),
        ("unlabeled,{},{},", (split.unlabeled_ids, split.categories(split.unlabeled_cluster)),
         split.unlabeled_x),
        ("test,{},{},", (split.test_ids, split.categories(split.test_cluster)), split.test_x)])


def cluster_manifest(split: Split) -> list[dict]:
    """The cluster table as JSON, as a run's manifest.json holds it under `clusters`."""
    return [{"kind": kind, "index": index, "mean": mean.tolist(), "scale": scale}
            for kind, index, mean, scale in split.clusters]
