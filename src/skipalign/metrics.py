"""Evaluation: closed-set accuracy, per-source AUROC, and feature geometry.

The OOD scoring rule is deliberately a tagged choice (the detector's ID
probability at the classifier's argmax class by default) and the report
names the rule it used. AUROC is the Mann-Whitney statistic, ties worth one
half, counted exactly from one sort of the OOD scores. Test rows are grouped
once, by their distinct category names, and every per-category figure reads
that grouping, so no step is quadratic in the test split and no Python runs
per test row. Feature norms and the detector's ID probabilities are
computed here, from the features and logits of the forward.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EmbeddingBatch
from .heads import id_probs
from .linalg import softmax_rows
from .net import ParamState, forward
from .prototypes import PrototypeSet, proto_similarity_profile
from .synthdata import Split, write_float_rows

SCORE_RULES = ("ova_id_at_cc_argmax", "max_cc_softmax", "max_ova_id", "feature_norm")


def ood_score(ova_probs: np.ndarray, cc_probs: np.ndarray, rule: str = "ova_id_at_cc_argmax",
              feature_norms: np.ndarray | None = None) -> np.ndarray:
    """Per-sample ID-ness score; higher means more in-distribution.

    `ova_probs` is the detector's (B, K) ID probability per class.
    """
    if rule == "ova_id_at_cc_argmax":
        pred = np.argmax(cc_probs, axis=1)
        return ova_probs[np.arange(pred.size), pred]
    if rule == "max_cc_softmax":
        return np.max(cc_probs, axis=1)
    if rule == "max_ova_id":
        return np.max(ova_probs, axis=1)
    if rule == "feature_norm":
        if feature_norms is None:
            raise ValueError("feature_norm scoring requires feature_norms")
        return np.asarray(feature_norms, dtype=np.float64)
    raise ValueError(f"unknown score rule '{rule}'")


def _score_vector(name: str, scores) -> np.ndarray:
    v = np.asarray(scores, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    return v


def auroc(id_scores, ood_scores) -> float:
    """Probability that a random ID sample outscores a random OOD sample.

    The Mann-Whitney count over all n_id * n_ood pairs, wins 1 and ties 0.5,
    from one sort of the OOD scores: for each ID score, the OOD scores
    strictly below it are its wins and those equal to it its ties. Both are
    integer counts, so the value is the exact pair count's. NaN on either
    side neither wins nor ties, as under pair comparison.
    """
    a = _score_vector("id_scores", id_scores)
    b = np.sort(_score_vector("ood_scores", ood_scores))  # NaN sorts last
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


# Every test row falls in one of these, by the prefix of its category name.
COARSE_CATEGORIES = ("id", "seen_ood", "unseen_ood")


def _coarse_category(cat: str) -> str:
    if cat.startswith("id:"):
        return "id"
    if cat.startswith("seen:"):
        return "seen_ood"
    return "unseen_ood"


def evaluate(params: ParamState, split: Split, protos: PrototypeSet,
             score_rule: str = "ova_id_at_cc_argmax") -> EvalReport:
    """Score the test split of a scenario against a frozen parameter state."""
    if split.test_x.shape[0] == 0:
        raise ValueError("test split is empty")
    out = forward(params, split.test_x)
    cc_probs = softmax_rows(out.cc_logits)

    # Each distinct category name is parsed once; its rows index it. The
    # coarse categories keep the order of their first test row.
    names, first, row_name = np.unique(np.asarray(split.test_category), return_index=True,
                                       return_inverse=True)
    names = names.tolist()
    coarse = np.array([_coarse_category(name) for name in names])
    kinds = sorted(set(coarse.tolist()), key=lambda kind: first[coarse == kind].min())
    groups = {kind: (coarse == kind)[row_name] for kind in kinds}
    if "id" not in groups:
        raise ValueError("test split has no in-distribution rows")
    id_rows = groups["id"]
    true_class = np.array([int(name.split(":")[1]) if kind == "id" else -1
                           for name, kind in zip(names, coarse)])[row_name]
    pred = np.argmax(cc_probs, axis=1)
    accuracy = float((pred[id_rows] == true_class[id_rows]).mean())

    norms = np.linalg.norm(out.features, axis=1)
    scores = ood_score(id_probs(out.id_logits, out.ood_logits), cc_probs, rule=score_rule,
                       feature_norms=norms)
    id_scores = scores[id_rows]
    sources: dict[str, float] = {}
    if "seen_ood" in groups:
        sources["seen"] = auroc(id_scores, scores[groups["seen_ood"]])
    unseen = sorted((k for k, name in enumerate(names) if name.startswith("unseen:")),
                    key=lambda k: int(names[k].split(":")[1]))
    for k in unseen:
        sources[f"unseen_{names[k].split(':')[1]}"] = auroc(id_scores, scores[row_name == k])

    unseen_values = [v for k, v in sources.items() if k.startswith("unseen_")]
    unseen_auc = float(np.mean(unseen_values)) if unseen_values else float("nan")
    seen_auc = sources.get("seen", float("nan"))
    overall = float(np.mean(list(sources.values()))) if sources else float("nan")

    max_cos = proto_similarity_profile(EmbeddingBatch(out.embeddings), protos).max(axis=1)
    return EvalReport(
        accuracy=accuracy, score_rule=score_rule, auroc_per_source=sources,
        seen_auc=seen_auc, unseen_auc=unseen_auc, overall_auc=overall,
        norm_by_category={c: float(norms[rows].mean()) for c, rows in groups.items()},
        cosine_by_category={c: float(max_cos[rows].mean()) for c, rows in groups.items()},
        counts={c: int(rows.sum()) for c, rows in groups.items()},
        missing_categories=[c for c in COARSE_CATEGORIES if c not in groups],
    )


def write_eval_json(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)


def write_eval_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerows(report.csv_rows())


def write_embedding_dump(params: ParamState, split: Split, path) -> None:
    """Per-test-sample rows (id, category, feature_norm, z_0..z_{d-1})."""
    out = forward(params, split.test_x)
    norms = np.linalg.norm(out.features, axis=1)
    rows = zip(map(int, split.test_ids), split.test_category, map(float, norms))
    write_float_rows(path, ["id", "category", "feature_norm"], "z",
                     [((f"{i},{c},{n!r}" for i, c, n in rows), out.embeddings)])
