"""The benchmark's workloads: generated configs, one operation each, and the
checks that an operation's outputs are correct.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operation i of a run uses config seed
``seed + i``, so a run's inputs follow from its ``--seed`` alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from skipalign import cli
from skipalign.config import resolve_config
from skipalign.metrics import SCORE_RULES

LOSS_COMBOS = ["none", "ia_pa", "usna", "all"]
# About 30x the default 600-row test split: 4 ID classes, 2 seen and 3
# unseen OOD clusters at 2,000 rows each give 18,000 test rows.
LARGE_TEST_PER_CLUSTER = 2000
# A shrunken scenario for warm-up and the harness's own tests: every layer
# runs, in a few tens of milliseconds.
SMALL = {"scenario": {"test_id_per_class": 10, "test_seen_per_cluster": 10,
                      "test_unseen_per_cluster": 10},
         "train": {"epochs": 1, "iters_per_epoch": 2}}


@dataclass(frozen=True)
class Workload:
    name: str
    raw: Callable[[int], dict]           # config seed -> raw config dict
    op: Callable[[dict, Path], list]     # (raw config, out root) -> run dirs
    golden: Callable[[list, bytes], list] | None = None  # seed-0 reference check


def default_raw(seed: int) -> dict:
    return {"seed": seed}


def large_raw(seed: int) -> dict:
    n = LARGE_TEST_PER_CLUSTER
    return {"seed": seed,
            "scenario": {"test_id_per_class": n, "test_seen_per_cluster": n,
                         "test_unseen_per_cluster": n},
            "train": {"epochs": 1}}


def shrink(raw: dict) -> dict:
    """The same config with the small scenario and a two-step training."""
    out = json.loads(json.dumps(raw))
    for section, fields in SMALL.items():
        out.setdefault(section, {}).update(fields)
    return out


def eval_verb(run_dir: Path, rule: str) -> None:
    """``skipalign eval`` on a finished run; writes rescore_<rule>.json."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", "--run-dir", str(run_dir), "--score-rule", rule])
    if code != 0:
        raise RuntimeError(f"eval verb exited {code} on {run_dir}")


def run_once(raw: dict, out: Path) -> list:
    run_dir, _ = cli.run_experiment(resolve_config(raw), out)
    return [run_dir]


def run_and_rescore(raw: dict, out: Path) -> list:
    run_dir, _ = cli.run_experiment(resolve_config(raw), out)
    for rule in SCORE_RULES:
        eval_verb(run_dir, rule)
    return [run_dir]


def sweep_combos(raw: dict, out: Path) -> list:
    rows = cli.sweep(raw, "loss_combo", LOSS_COMBOS, out)
    return [Path(row["run_dir"]) for row in rows]


def _csv_rows(data: bytes) -> dict:
    return dict(csv.reader(io.StringIO(data.decode())))


def golden_metrics(run_dirs: list, golden: bytes) -> list:
    fresh = (run_dirs[0] / "metrics.csv").read_bytes()
    return [] if fresh == golden else ["metrics.csv differs from tests/golden/metrics.csv"]


def golden_overall_auc(run_dirs: list, golden: bytes) -> list:
    want = _csv_rows(golden)["overall_auc"]
    for run_dir in run_dirs:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest["sweep"]["value"] == "all":
            got = _csv_rows((run_dir / "metrics.csv").read_bytes())["overall_auc"]
            return [] if got == want else [f"sweep 'all' overall_auc {got} != golden {want}"]
    return ["sweep has no 'all' run"]


# Why each workload is here is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("train_default", default_raw, run_once, golden_metrics),
    Workload("eval_large", large_raw, run_and_rescore),
    Workload("sweep_loss_combo", default_raw, sweep_combos, golden_overall_auc),
)}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def verify(workload: Workload, seed: int, run_dirs: list, golden_path: Path) -> list:
    """Failures of one operation's outputs; an empty list means correct.

    Every run is re-scored by ``eval`` under each score rule (eval_large's
    operation already did so). Every report must hold finite metrics, and
    the re-score under the run's own rule must reproduce eval_report.json
    byte for byte. At config seed 0 the workload's golden reference must
    hold as well.
    """
    failures = []
    for run_dir in run_dirs:
        report_bytes = (run_dir / "eval_report.json").read_bytes()
        report = json.loads(report_bytes)
        for key in ("accuracy", "seen_auc", "unseen_auc", "overall_auc"):
            if not _finite(report[key]):
                failures.append(f"{run_dir.name}: {key} is {report[key]!r}")
        for rule in SCORE_RULES:
            if not (run_dir / f"rescore_{rule}.json").exists():
                eval_verb(run_dir, rule)
        own = run_dir / f"rescore_{report['score_rule']}.json"
        if own.read_bytes() != report_bytes:
            failures.append(f"{run_dir.name}: eval does not reproduce eval_report.json")
        for path in sorted(run_dir.glob("rescore_*.json")):
            rescored = json.loads(path.read_text())
            if path.stem != f"rescore_{rescored['score_rule']}":
                failures.append(f"{path.name} names rule {rescored['score_rule']!r}")
            if not all(_finite(rescored[k]) for k in ("accuracy", "overall_auc")):
                failures.append(f"{path.name}: non-finite metric")
    if seed == 0 and workload.golden is not None:
        if golden_path.is_file():
            failures += workload.golden(run_dirs, golden_path.read_bytes())
        else:
            failures.append(f"golden file missing: {golden_path}")
    return failures
