"""The golden files: the default seed-0 run, byte for byte.

`golden/metrics.csv` is that run's `metrics.csv`. `golden/artifacts.json` maps
each file of the run, and of its `rescore_<rule>.json` under each score rule,
to its sha256, with `manifest.json` hashed with its `wall_clock_s` read as
null. Its `runs` pins more runs the same way, each with its config. `check`
reruns every run and names each golden file that moved; `write` rewrites both
files, keeping the configs in `runs`.

Rewrite them after a deliberate change with
`PYTHONPATH=src python tests/golden_files.py`, from any directory: it prints
each fingerprint that moved and each `metrics.csv` row as old -> new. A helper
of the tests, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
from pathlib import Path

from skipalign.cli import _rescore, run_experiment
from skipalign.config import ExperimentConfig, resolve_config
from skipalign.metrics import SCORE_RULES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def fingerprints(cfg: ExperimentConfig) -> tuple[dict[str, str], bytes]:
    """The sha256 of each file of a run of cfg and of its re-score under each rule, and
    its metrics.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, _ = run_experiment(cfg, Path(tmp))
        for rule in SCORE_RULES:
            _rescore(run_dir, rule)
        files = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}
    wall_clock = rb'"wall_clock_s": [^,\n]*'  # the one value in which equal runs differ
    files["manifest.json"] = re.sub(wall_clock, b'"wall_clock_s": null', files["manifest.json"])
    hashes = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    return hashes, files["metrics.csv"]


def fresh(cfg: ExperimentConfig, committed: dict) -> tuple[dict, bytes]:
    """The table and metrics.csv of a run of cfg, with each run of the committed table's
    `runs` rerun under its config."""
    table, metrics_csv = fingerprints(cfg)
    for name, run in committed.get("runs", {}).items():
        table.setdefault("runs", {})[name] = {
            "config": run["config"], "files": fingerprints(resolve_config(run["config"]))[0]}
    return table, metrics_csv


def flat(table: dict) -> dict[str, str]:
    """Each file's sha256 by name, a file of a run in `runs` as <run>/<file>."""
    return {**{f"{run}/{name}": sha for run, entry in table.get("runs", {}).items()
               for name, sha in entry["files"].items()},
            **{name: sha for name, sha in table.items() if name != "runs"}}


def moved(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The names whose value differs, or that one side lacks: the top run's first."""
    return [name for name in sorted({*old, *new}, key=lambda name: ("/" in name, name))
            if old.get(name) != new.get(name)]


def check(cfg: ExperimentConfig, golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """What moved against the golden files in golden_dir: the metrics.csv path if its
    bytes differ, then each file whose fingerprint moved; empty when nothing did. Both
    files are read before any run, so a missing one raises FileNotFoundError at once."""
    metrics_path = golden_dir / "metrics.csv"
    want_csv = metrics_path.read_bytes()
    committed = json.loads((golden_dir / "artifacts.json").read_text())
    table, metrics_csv = fresh(cfg, committed)
    return ([str(metrics_path)] if metrics_csv != want_csv else []) + moved(
        flat(committed), flat(table))


def csv_rows(data: bytes) -> dict[str, str]:
    """A key,value metrics.csv as a map from key to value, without its header."""
    return dict(line.split(",", 1) for line in data.decode().splitlines()[1:])


def write(cfg: ExperimentConfig, golden_dir: Path = GOLDEN_DIR) -> list[str]:
    """Rewrite both golden files in golden_dir from fresh runs. Returns each fingerprint
    and each metrics.csv row that moved, as "<name>: old -> new"; a value the old files
    lack reads as None."""
    metrics_path, table_path = golden_dir / "metrics.csv", golden_dir / "artifacts.json"
    committed = json.loads(table_path.read_text()) if table_path.exists() else {}
    old_rows = csv_rows(metrics_path.read_bytes()) if metrics_path.exists() else {}
    table, metrics_csv = fresh(cfg, committed)
    golden_dir.mkdir(parents=True, exist_ok=True)
    metrics_path.write_bytes(metrics_csv)
    table_path.write_text(json.dumps(table, indent=2) + "\n")
    new_rows = csv_rows(metrics_csv)
    old, new = flat(committed), flat(table)
    return ([f"metrics.csv {key}: {old_rows.get(key)} -> {new_rows.get(key)}"
             for key in dict.fromkeys([*old_rows, *new_rows])
             if old_rows.get(key) != new_rows.get(key)]
            + [f"{name}: {old.get(name)} -> {new.get(name)}" for name in moved(old, new)])


if __name__ == "__main__":
    lines = write(resolve_config({"seed": 0}))
    print("\n".join(lines) if lines else "no golden value moved")
    print(f"golden files written: {GOLDEN_DIR / 'metrics.csv'}, {GOLDEN_DIR / 'artifacts.json'}")
