"""Metrics derived from recorded spans and from a run's artifacts.

End-to-end metrics come from an untraced run, which records only the
coarse spans. Per-layer metrics come from a traced run. Unless its name
says otherwise, a time is the median over calls of one call's duration,
and a count is the median over operations of the total in one operation.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from spans import COUNT_NODES, LOSS_TERMS, self_times

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s.p50", "s"),
    ("train_steps_per_s", "steps/s"),
    ("sweep_runs_per_min", "runs/min"),
    ("eval_rows_per_s", "rows/s"),
    ("rescore_s.p50", "s"),
    ("peak_rss_mb", "MB"),
]

# (per-layer metric, span it reads, scale to its unit) for per-call medians.
_CALL_TIMES = [
    ("synthdata.generate_ms", "synthdata.generate", 1e-6),
    ("synthdata.augment_views_us", "synthdata.augment_views", 1e-3),
    ("synthdata.write_split_csv_ms", "synthdata.write_split_csv", 1e-6),
    ("autodiff.backward_ms", "autodiff.backward", 1e-6),
    *[(f"tensor_losses.{t}_graph_us", f"tensor_losses.{t}_graph", 1e-3) for t in LOSS_TERMS],
    ("net.forward_tensors_us", "net.forward_tensors", 1e-3),
    ("net.backward_ms.p50", "net.backward", 1e-6),
    ("net.sgd_step_us", "net.sgd_step", 1e-3),
    ("net.forward_ms", "net.forward", 1e-6),
    ("net.save_checkpoint_ms", "net.save_checkpoint", 1e-6),
    ("net.load_checkpoint_ms", "net.load_checkpoint", 1e-6),
    ("sna.dual_gate_us", "sna.dual_gate", 1e-3),
    ("prototypes.refresh_ms", "prototypes.refresh", 1e-6),
    ("trainer.write_jsonl_ms", "trainer.write_jsonl", 1e-6),
    ("metrics.evaluate_ms", "metrics.evaluate", 1e-6),
    ("metrics.auroc_ms", "metrics.auroc", 1e-6),
    ("metrics.write_embedding_dump_ms", "metrics.write_embedding_dump", 1e-6),
    ("cli.eval_verb_ms", "cli.main", 1e-6),
    ("config.resolve_config_ms", "config.resolve_config", 1e-6),
    ("config.config_hash_ms", "config.config_hash", 1e-6),
]

# (per-layer metric, span whose counts it sums per operation).
_OP_COUNTS = [
    ("net.forward_rows", "net.forward"),
    ("prototypes.unlabeled_rows", "prototypes.refresh"),
    ("metrics.auroc_pairs", "metrics.auroc"),
]

ARTIFACTS = ["runlog_bytes", "runlog_gate_detail_pct", "split_bytes",
             "embeddings_bytes", "checkpoint_bytes"]

PER_LAYER = (
    [(name, "ms" if name.endswith(("_ms", ".p50")) else "us") for name, _, _ in _CALL_TIMES]
    + [("net.backward_ms.p95", "ms"),
       ("autodiff.tape_nodes_per_step", "count"),
       *[(f"tensor_losses.{t}_calls", "count") for t in LOSS_TERMS],
       *[(name, "count") for name, _ in _OP_COUNTS],
       ("sna.gate_accept_ratio", "ratio"),
       ("trainer.step_ms.p50", "ms"), ("trainer.step_ms.p95", "ms"),
       ("trainer.steps", "count"), ("trainer.self_ms", "ms"),
       ("cli.run_experiment_self_ms", "ms"), ("cli.sweep_self_ms", "ms"),
       *[(f"artifact.{a}", "%" if a.endswith("pct") else "bytes") for a in ARTIFACTS],
       ("trace.train_steps_per_s", "steps/s"), ("trace.untraced_train_steps_per_s", "steps/s"),
       ("trace.overhead_pct", "%"), ("trace.train_unattributed_ms", "ms")]
)


def median(values) -> float:
    """Median, or 0.0 for a layer the workload never called."""
    return float(statistics.median(values)) if values else 0.0


def p95(values) -> float:
    if len(values) < 2:
        return median(values)
    return float(statistics.quantiles(values, n=20, method="inclusive")[18])


class SpanIndex:
    """Spans grouped by name, with durations in nanoseconds."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        # Time of the harness's own node counting, by the span it runs in.
        self.harness = defaultdict(int)
        for i, span in enumerate(spans):
            self.by_name[span[0]].append(i)
            if span[0] == COUNT_NODES and span[3] >= 0:
                self.harness[span[3]] += span[2] - span[1]

    def durations(self, name) -> list[int]:
        """Durations, less the harness's node counting directly inside each span."""
        return [self.spans[i][2] - self.spans[i][1] - self.harness.get(i, 0)
                for i in self.by_name[name]]

    def counts(self, name) -> list:
        return [self.spans[i][5] for i in self.by_name[name]]

    def steps_per_s(self) -> float:
        steps = sum(c["steps"] for c in self.counts("trainer.train"))
        return steps / (sum(self.durations("trainer.train")) * 1e-9)


def end_to_end(spans, op_wall_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced run, keyed by name."""
    index = SpanIndex(spans)
    rows = sum(index.counts("metrics.evaluate"))
    values = {
        "setup_s": setup_s,
        "run_s.p50": median(index.durations("cli.run_experiment")) * 1e-9,
        "train_steps_per_s": index.steps_per_s(),
        "sweep_runs_per_min": 60.0 * len(index.by_name["cli.run_experiment"]) / op_wall_s,
        "eval_rows_per_s": rows / (sum(index.durations("metrics.evaluate")) * 1e-9),
        "rescore_s.p50": median(index.durations("cli.main")) * 1e-9,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_op(spans, indices, value) -> list:
    totals = defaultdict(int)
    for run in {span[4] for span in spans}:
        totals[run] = 0
    for i in indices:
        totals[spans[i][4]] += value(i)
    return list(totals.values())


def _train_breakdown(index: SpanIndex, own: list[int]) -> dict:
    """Per-train step times, trainer self time and self time by layer."""
    spans = index.spans
    train_of = []
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        train_of.append(i if name == "trainer.train" else train_of[parent] if parent >= 0 else -1)
    trains = index.by_name["trainer.train"]
    trainer_self = {t: 0 for t in trains}
    unattributed = {t: spans[t][2] - spans[t][1] for t in trains}
    by_layer = defaultdict(int)
    step_starts = defaultdict(list)
    step_ends = defaultdict(list)
    walks = defaultdict(list)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        t = train_of[i]
        if t < 0:
            continue
        if name in ("trainer.train", "trainer.closure", "trainer.lr_at"):
            trainer_self[t] += own[i]
        elif name != COUNT_NODES:
            by_layer[name] += own[i]
        if name != COUNT_NODES:
            unattributed[t] -= own[i]
        if name == "trainer.lr_at":
            step_starts[t].append(start)
        elif name == "net.sgd_step":
            step_ends[t].append(end)
        elif name == COUNT_NODES:
            walks[t].append((start, end))
    # A step's time leaves out the node counting that runs inside it.
    steps = []
    for t in trains:
        k = 0
        for start, end in zip(step_starts[t], step_ends[t]):
            walk = 0
            while k < len(walks[t]) and walks[t][k][0] < end:
                if walks[t][k][0] >= start:
                    walk += walks[t][k][1] - walks[t][k][0]
                k += 1
            steps.append(end - start - walk)
    n = max(len(trains), 1)
    accounting = {"trainer.self": sum(trainer_self.values()) / n * 1e-6,
                  **{name: total / n * 1e-6 for name, total in sorted(by_layer.items())},
                  "unattributed": sum(unattributed.values()) / n * 1e-6,
                  "trainer.train_wall": sum(index.durations("trainer.train")) / n * 1e-6}
    return {"steps": steps, "trainer_self": list(trainer_self.values()),
            "unattributed": list(unattributed.values()), "accounting_ms": accounting}


def per_layer(spans, ref_spans, artifacts: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the per-train time accounting.

    ``ref_spans`` are the coarse spans of the untraced twin of each traced
    operation; ``artifacts`` holds one ``artifact_counts`` dict per run dir.
    """
    index = SpanIndex(spans)
    own = self_times(spans)
    values = {}
    # pa_graph builds its loss through usna_graph; those nested calls are pa's.
    index.by_name["tensor_losses.usna_graph"] = [
        i for i in index.by_name["tensor_losses.usna_graph"]
        if spans[i][3] < 0 or spans[spans[i][3]][0] != "tensor_losses.pa_graph"]
    for metric, name, scale in _CALL_TIMES:
        values[metric] = median(index.durations(name)) * scale
    values["net.backward_ms.p95"] = p95(index.durations("net.backward")) * 1e-6
    values["autodiff.tape_nodes_per_step"] = median(index.counts(COUNT_NODES))
    for term in LOSS_TERMS:
        values[f"tensor_losses.{term}_calls"] = median(
            _per_op(spans, index.by_name[f"tensor_losses.{term}_graph"], lambda i: 1))
    for metric, name in _OP_COUNTS:
        values[metric] = median(_per_op(spans, index.by_name[name], lambda i: spans[i][5]))
    trains = index.counts("trainer.train")
    drawn = sum(c["drawn"] for c in trains)
    values["sna.gate_accept_ratio"] = sum(c["accepted"] for c in trains) / drawn if drawn else 0.0
    breakdown = _train_breakdown(index, own)
    values["trainer.step_ms.p50"] = median(breakdown["steps"]) * 1e-6
    values["trainer.step_ms.p95"] = p95(breakdown["steps"]) * 1e-6
    values["trainer.steps"] = median(_per_op(spans, index.by_name["trainer.train"],
                                             lambda i: spans[i][5]["steps"]))
    values["trainer.self_ms"] = median(breakdown["trainer_self"]) * 1e-6
    for metric, name in (("cli.run_experiment_self_ms", "cli.run_experiment"),
                         ("cli.sweep_self_ms", "cli.sweep")):
        values[metric] = median([own[i] for i in index.by_name[name]]) * 1e-6
    for key in ARTIFACTS:
        values[f"artifact.{key}"] = median([a[key] for a in artifacts])
    traced = index.steps_per_s() if trains else 0.0
    untraced = SpanIndex(ref_spans).steps_per_s() if ref_spans else 0.0
    values["trace.train_steps_per_s"] = traced
    values["trace.untraced_train_steps_per_s"] = untraced
    values["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced if untraced else 0.0
    values["trace.train_unattributed_ms"] = median(breakdown["unattributed"]) * 1e-6
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, breakdown["accounting_ms"]


def artifact_counts(run_dir) -> dict:
    """Artifact sizes of one run, and the share of its runlog that is gate_detail."""
    runlog = run_dir / "runlog.jsonl"
    size = runlog.stat().st_size
    without_detail = 0
    with open(runlog) as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("gate_detail", None)
            without_detail += len(json.dumps(record)) + 1
    return {"runlog_bytes": size,
            "runlog_gate_detail_pct": 100.0 * (size - without_detail) / size,
            "split_bytes": (run_dir / "split.csv").stat().st_size,
            "embeddings_bytes": (run_dir / "embeddings.csv").stat().st_size,
            "checkpoint_bytes": (run_dir / "checkpoint.json").stat().st_size}
