"""Evaluation: closed-set accuracy, per-source AUROC, and feature geometry.

The OOD scoring rule is deliberately a tagged choice (the detector's ID
probability at the classifier's argmax class by default) and the report names
the rule it used; each rule computes only the inputs it reads, and a row's
prediction is its classifier logits' argmax. AUROC is the Mann-Whitney
statistic, ties worth one half, counted exactly by walking the sorted ID scores
through the sorted OOD scores. Each test row's kind and class index are read
from the split's cluster table through the row's cluster code; rows are grouped
once, in table order, and every per-category figure reads that grouping, so no
step is quadratic in the test split and no Python runs per test row. The split
is forwarded in balanced row ranges of at most FORWARD_CHUNK_ROWS, each reduced
at once to the per-row figures (prediction, score, feature norm, best prototype
cosine), so memory is one range's activations plus 1-D arrays over the split,
and the bytes are those of one forward over all rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .heads import log_softmax, norm, normalize, two_way
from .net import ForwardResult, ParamState, forward
from .synthdata import Split, write_float_rows

SCORE_RULES = ("ova_id_at_cc_argmax", "max_cc_softmax", "max_ova_id", "feature_norm")
# Most test rows one forward takes: bounds the memory of a pass over the test split. At
# least 3, so balanced ranges have two rows or more unless the split has one: numpy hands
# a one-row product to BLAS gemv, whose bits differ from gemm's. 256 rows ran slower.
FORWARD_CHUNK_ROWS = 1024


def ood_score(out: ForwardResult, pred: np.ndarray, rule: str,
              feature_norms: np.ndarray) -> np.ndarray:
    """Per-row ID-ness score of a forward's rows; higher means more in-distribution.

    `pred` is the argmax of `out`'s classifier logits per row. Each rule reads only its
    own inputs: only the two detector rules take the two-way softmax, and
    `ova_id_at_cc_argmax` on the logits at `pred` alone (it is elementwise), only
    `max_cc_softmax` the classifier's softmax, whose maximum lies at `pred`, and
    `feature_norm` returns the rows' feature norms.
    """
    if rule == "ova_id_at_cc_argmax":
        rows = np.arange(pred.size)
        return two_way(out.id_logits[rows, pred], out.ood_logits[rows, pred])[2]
    if rule == "max_cc_softmax":
        return log_softmax(out.cc_logits)[1][np.arange(pred.size), pred]
    if rule == "max_ova_id":
        return _row_max(two_way(out.id_logits, out.ood_logits)[2])
    if rule == "feature_norm":
        return feature_norms
    raise ValueError(f"unknown score rule '{rule}'")


def _row_max(a: np.ndarray) -> np.ndarray:
    """Each row's maximum, gathered at its argmax: the value .max(axis=1) gives, faster
    on the few-column rows the heads and the prototypes give."""
    return a[np.arange(len(a)), a.argmax(axis=1)]


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Probability that a random ID sample outscores a random OOD sample.

    The Mann-Whitney count over all n_id * n_ood pairs, wins 1 and ties 0.5,
    with both score sets sorted: for each ID score, the OOD scores strictly
    below it are its wins and those equal to it its ties, and sorted needles
    let each binary search start where the last one ended. Both are integer
    counts, so the value is the exact pair count's. NaN on either side
    neither wins nor ties, as under pair comparison.
    """
    # evaluate passes non-empty 1-D float64 arrays: every group it scores has test rows.
    a = np.sort(id_scores)  # NaN sorts last
    b = np.sort(ood_scores)
    comparable = a[~np.isnan(a)]
    below = np.searchsorted(b, comparable, side="left")
    wins = below.sum()
    ties = (np.searchsorted(b, comparable, side="right") - below).sum()
    return float((wins + 0.5 * ties) / (a.size * b.size))


@dataclass
class EvalReport:
    accuracy: float
    score_rule: str
    auroc_per_source: dict[str, float]
    seen_auc: float
    unseen_auc: float
    overall_auc: float
    norm_by_category: dict[str, float]
    cosine_by_category: dict[str, float]
    counts: dict[str, int] = field(default_factory=dict)
    missing_categories: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[tuple[str, str]]:
        """Flat (key, value) rows with round-trippable float formatting."""
        rows = [("score_rule", self.score_rule), ("accuracy", repr(self.accuracy))]
        for name, value in sorted(self.auroc_per_source.items()):
            rows.append((f"auroc/{name}", repr(value)))
        rows.append(("seen_auc", repr(self.seen_auc)))
        rows.append(("unseen_auc", repr(self.unseen_auc)))
        rows.append(("overall_auc", repr(self.overall_auc)))
        for name, value in sorted(self.norm_by_category.items()):
            rows.append((f"mean_feature_norm/{name}", repr(value)))
        for name, value in sorted(self.cosine_by_category.items()):
            rows.append((f"mean_max_cosine/{name}", repr(value)))
        for name, value in sorted(self.counts.items()):
            rows.append((f"count/{name}", str(value)))
        return rows


COARSE_CATEGORIES = {"id": "id", "seen": "seen_ood", "unseen": "unseen_ood"}


def _forward_ranges(params: ParamState, x: np.ndarray):
    """(lo, hi, forward of rows lo..hi-1) over balanced contiguous ranges of at most
    FORWARD_CHUNK_ROWS rows, so a pass over a large split holds one range's activations."""
    n = x.shape[0]
    k = -(-n // FORWARD_CHUNK_ROWS)
    for i in range(k):
        lo, hi = n * i // k, n * (i + 1) // k
        yield lo, hi, forward(params, x[lo:hi])


def evaluate(params: ParamState, split: Split, unit_protos: np.ndarray,
             score_rule: str = SCORE_RULES[0]) -> EvalReport:
    """Score the test split of a scenario against a frozen parameter state and the
    (K, d) unit prototype rows (`PrototypeSet.unit_directions`). The split has
    in-distribution test rows: `resolve_config` refuses a scenario without them."""
    n = split.test_x.shape[0]
    codes = split.test_cluster
    present = np.flatnonzero(np.bincount(codes))  # table positions of clusters with test rows
    coarse = np.array([COARSE_CATEGORIES[kind] for kind, *_ in split.clusters])
    groups = {c: (coarse == c)[codes] for c in dict.fromkeys(coarse[present].tolist())}
    id_rows = groups["id"]
    true_class = np.array([index for _, index, *_ in split.clusters])[codes]

    pred = np.empty(n, dtype=np.intp)
    scores, norms, max_cos = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi, out in _forward_ranges(params, split.test_x):
        pred[lo:hi] = out.cc_logits.argmax(axis=1)
        norms[lo:hi] = norm(out.features)
        scores[lo:hi] = ood_score(out, pred[lo:hi], score_rule, norms[lo:hi])
        max_cos[lo:hi] = _row_max(normalize(out.embeddings)[0] @ unit_protos.T)
    if not np.isfinite(norms).all():  # features whose squares overflow, or NaN
        raise ValueError("non-finite feature norm")
    accuracy = float((pred[id_rows] == true_class[id_rows]).mean())

    id_scores = scores[id_rows]
    seen = {"seen": auroc(id_scores, scores[groups["seen_ood"]])} if "seen_ood" in groups else {}
    unseen = {f"unseen_{split.clusters[k][1]}": auroc(id_scores, scores[codes == k])
              for k in present.tolist() if split.clusters[k][0] == "unseen"}
    sources = seen | unseen
    unseen_auc = float(np.mean(list(unseen.values()))) if unseen else float("nan")
    seen_auc = sources.get("seen", float("nan"))
    overall = float(np.mean(list(sources.values()))) if sources else float("nan")

    return EvalReport(
        accuracy=accuracy, score_rule=score_rule, auroc_per_source=sources,
        seen_auc=seen_auc, unseen_auc=unseen_auc, overall_auc=overall,
        norm_by_category={c: float(norms[rows].mean()) for c, rows in groups.items()},
        cosine_by_category={c: float(max_cos[rows].mean()) for c, rows in groups.items()},
        counts={c: int(rows.sum()) for c, rows in groups.items()},
        missing_categories=[c for c in COARSE_CATEGORIES.values() if c not in groups],
    )


def write_eval_json(report: EvalReport, path) -> str:
    """The report as JSON. An AUC with no OOD rows to count is NaN, which JSON cannot
    hold, so it is written as null; metrics.csv keeps it as nan."""
    fields = {key: None if isinstance(value, float) and math.isnan(value) else value
              for key, value in report.to_dict().items()}
    text = json.dumps(fields, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_eval_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(report.csv_rows())


def write_embedding_dump(params: ParamState, split: Split, path) -> None:
    """Per-test-sample rows (id, category, feature_norm, z_0..z_{d-1})."""
    n = split.test_x.shape[0]
    z, norms = np.empty((n, params.spec.embed_dim)), np.empty(n)
    for lo, hi, out in _forward_ranges(params, split.test_x):
        z[lo:hi], norms[lo:hi] = out.embeddings, norm(out.features)
    write_float_rows(path, ["id", "category", "feature_norm"], "z", [
        ("{},{},{!r}", (split.test_ids, split.categories(split.test_cluster), norms), z)])
