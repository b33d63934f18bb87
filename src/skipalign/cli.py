"""Experiment runner.

Verbs:
  run       train + evaluate one configuration into a fresh run directory
  sweep     repeat a run across one axis (eta_id, r_u, loss_combo, lambda_sna)
  eval      re-score a complete run's checkpoint

Every verb reads its config file through `config.read_raw` (`eval` reads the
whole manifest with `read_json`), exactly as written; the file and `--seed`
are a run's only inputs. Run directories are named by the config hash, which
covers the seed; an existing directory is refused unless --force is given. A
run's manifest is written first with status "running" and ends "complete",
"diverged" or "error"; a failed run keeps its directory. Exit codes: 0
success, 2 invalid config or usage (a missing, unreadable or misplaced path
included, and a run whose arrays do not fit in memory), 3 training diverged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, config_hash, load_config, read_json,
                     read_raw, resolve_config)
from .heads import normalize
from .metrics import (SCORE_RULES, EvalReport, evaluate, write_embedding_dump, write_eval_csv,
                      write_eval_json)
from .net import NetSpec, load_checkpoint, save_checkpoint
from .prototypes import PrototypeSet
from .sna import LOSS_COMBOS
from .synthdata import PlacementError, cluster_manifest, generate, write_split_csv
from .trainer import TrainingDiverged, train

SWEEP_AXES = ("eta_id", "r_u", "loss_combo", "lambda_sna")


def apply_axis(raw: dict, axis: str, value) -> dict:
    """Set one sweep axis, one of SWEEP_AXES, on a raw (unresolved) config dict."""
    raw = json.loads(json.dumps(raw))
    train = raw.setdefault("train", {})
    if axis in ("eta_id", "r_u"):
        train[axis] = float(value)
    elif axis == "lambda_sna":
        train.setdefault("head", {})["lambda_sna"] = float(value)
    else:  # loss_combo
        if value not in LOSS_COMBOS:
            raise ConfigError("values", f"unknown loss combo '{value}'")
        train.setdefault("sna", {}).update(LOSS_COMBOS[value])
    return raw


def run_experiment(cfg: ExperimentConfig, out_root: Path, force: bool = False,
                   extra_manifest: dict | None = None) -> tuple[Path, EvalReport]:
    """Full pipeline: generate, train, evaluate the final prototypes once, persist
    artifacts. The manifest, written first, holds the config and the cluster table."""
    run_dir = Path(out_root) / config_hash(cfg)[:12]
    if run_dir.exists() and not force:
        raise FileExistsError(f"run directory already exists: {run_dir} (use --force)")
    started = time.time()
    try:  # before the run directory is touched, like every other config error
        split = generate(cfg.scenario)
    except PlacementError as err:
        raise ConfigError("scenario.min_separation", str(err)) from err
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "format_version": 1,
        "package_version": __version__,
        "config": cfg.resolved_dict(),
        "clusters": cluster_manifest(split),
        "status": "running",
        "wall_clock_s": None,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    _write_manifest(manifest, run_dir / "manifest.json")

    try:
        write_split_csv(split, run_dir / "split.csv")
        params, runlog = train(split, cfg.net, cfg.train)
        try:
            report, z, norms = evaluate(params, split, runlog.final_prototypes.unit_directions())
        except ValueError as err:  # trained values that overflow or zero a row
            raise TrainingDiverged(str(err), runlog) from err

        runlog.write_jsonl(run_dir / "runlog.jsonl")
        runlog.write_gate_detail(run_dir / "gate.npz")
        save_checkpoint(params, run_dir / "checkpoint.json")
        _write_prototypes(runlog.final_prototypes, run_dir / "prototypes.json")
        write_eval_json(report, run_dir / "eval_report.json")
        write_eval_csv(report, run_dir / "metrics.csv")
        write_embedding_dump(split, z, norms, run_dir / "embeddings.csv")
    except BaseException as err:
        # The run directory stays, marked as failed, for inspection, with a diverged run's steps.
        if isinstance(err, TrainingDiverged):
            err.runlog.write_jsonl(run_dir / "runlog.jsonl")
            err.runlog.write_gate_detail(run_dir / "gate.npz")
        manifest["status"] = "diverged" if isinstance(err, TrainingDiverged) else "error"
        _write_manifest(manifest, run_dir / "manifest.json")
        raise

    manifest["status"] = "complete"
    manifest["wall_clock_s"] = time.time() - started
    _write_manifest(manifest, run_dir / "manifest.json")
    return run_dir, report


def _write_manifest(manifest: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_prototypes(protos: PrototypeSet, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump({"mu": protos.mu.tolist(), "mu_unlabeled": protos.mu_unlabeled.tolist()}, fh)


def _load_prototypes(path: Path, spec: NetSpec) -> np.ndarray:
    """The unit rows of mu, the one field `eval` reads: a (num_classes, embed_dim)
    matrix of the checkpoint's spec whose row norms are finite and not zero."""
    with open(path) as fh:
        mu = np.array(json.load(fh)["mu"], dtype=np.float64)
    if mu.shape != (spec.num_classes, spec.embed_dim):
        raise ValueError(f"mu has shape {mu.shape}, the checkpoint needs "
                         f"({spec.num_classes}, {spec.embed_dim})")
    return normalize(mu)[0]


def _load_artifact(load, path: Path, *args):
    """load(path, *args), with a file that does not parse, or holds bad or overflowing
    values, reported as usage error naming it."""
    try:
        return load(path, *args)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        raise ConfigError(str(path), f"damaged run artifact: {type(err).__name__}: {err}") from err


def _cmd_run(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.dry_run:
        print(json.dumps(cfg.resolved_dict(), indent=2))
        return 0
    run_dir, report = run_experiment(cfg, Path(args.out), force=args.force)
    print(f"run complete: {run_dir}")
    print(f"accuracy={report.accuracy:.4f} seen_auc={report.seen_auc:.4f} "
          f"unseen_auc={report.unseen_auc:.4f} overall_auc={report.overall_auc:.4f}")
    return 0


def sweep(base_raw: dict, axis: str, values: list, out_root: Path,
          seed_override: int | None = None, force: bool = False) -> list[dict]:
    """One run per value, shared seed; returns the result table rows.

    The base and every value's config are resolved before the first run, so
    bad input, or two values giving the same config, fails before any
    training.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis '{axis}'")
    if axis != "loss_combo":
        try:
            values = [float(value) for value in values]
        except ValueError as err:
            raise ConfigError("values", str(err)) from None
    resolve_config(base_raw, seed_override=seed_override)
    cfgs = [resolve_config(apply_axis(base_raw, axis, value), seed_override=seed_override)
            for value in values]
    seen = {}
    for value, cfg in zip(values, cfgs):
        key = config_hash(cfg)
        if key in seen:
            raise ConfigError("values", f"{value!r} gives the same config as {seen[key]!r}")
        seen[key] = value
    rows = []
    for value, cfg in zip(values, cfgs):
        run_dir, report = run_experiment(
            cfg, out_root, force=force,
            extra_manifest={"sweep": {"axis": axis, "value": value}})
        rows.append({
            "value": value,
            "accuracy": report.accuracy,
            "seen_auc": report.seen_auc,
            "unseen_auc": report.unseen_auc,
            "overall_auc": report.overall_auc,
            "run_dir": str(run_dir),
        })
    return rows


def write_sweep_csv(rows: list[dict], axis: str, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, "accuracy", "seen_auc", "unseen_auc", "overall_auc"])
        for row in rows:
            writer.writerow([row["value"], repr(row["accuracy"]), repr(row["seen_auc"]),
                             repr(row["unseen_auc"]), repr(row["overall_auc"])])


def _cmd_sweep(args) -> int:
    base_raw = read_raw(args.config)
    values = [token.strip() for token in args.values.split(",")] if args.values.strip() else []
    out_root = Path(args.out)
    rows = sweep(base_raw, args.axis, values, out_root,
                 seed_override=args.seed, force=args.force)
    out_root.mkdir(parents=True, exist_ok=True)
    table_path = out_root / f"sweep_{args.axis}.csv"
    write_sweep_csv(rows, args.axis, table_path)
    print(f"sweep table: {table_path}")
    for row in rows:
        print(f"{args.axis}={row['value']}: acc={row['accuracy']:.4f} "
              f"seen={row['seen_auc']:.4f} unseen={row['unseen_auc']:.4f} "
              f"overall={row['overall_auc']:.4f}")
    return 0


def _rescore(run_dir: Path, rule: str) -> str:
    """Re-score a complete run under rule into rescore_<rule>.json; return the text written."""
    manifest_path = run_dir / "manifest.json"
    manifest = read_json(manifest_path)
    status = manifest.get("status") if isinstance(manifest, dict) else None
    if status != "complete":
        raise ConfigError(str(manifest_path), f"status is {status!r}; eval re-scores complete runs")
    try:
        cfg = resolve_config(manifest.get("config"))
        split = generate(cfg.scenario)
    except ConfigError as err:
        raise ConfigError(str(manifest_path), f"config: {err}") from err
    except PlacementError as err:
        raise ConfigError(str(manifest_path), f"config: scenario.min_separation: {err}") from err
    params = _load_artifact(load_checkpoint, run_dir / "checkpoint.json")
    if cfg.net != params.spec:
        raise ConfigError(str(manifest_path), "net does not match the spec in checkpoint.json")
    unit_protos = _load_artifact(_load_prototypes, run_dir / "prototypes.json", params.spec)
    try:
        report = evaluate(params, split, unit_protos, score_rule=rule)[0]
    except ValueError as err:  # parameters that load but overflow or zero a row
        raise ConfigError(str(run_dir / "checkpoint.json"),
                          f"cannot be evaluated: {err}") from err
    return write_eval_json(report, run_dir / f"rescore_{rule}.json")


def _cmd_eval(args) -> int:
    print(_rescore(Path(args.run_dir), args.score_rule))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skipalign",
                                     description="open-set SSL experiment runner")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="train and evaluate one configuration")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="runs")
    p_run.add_argument("--dry-run", action="store_true")
    p_run.add_argument("--force", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one axis across several values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; may be empty")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default="runs")
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_eval = sub.add_parser("eval", help="re-score a finished run")
    p_eval.add_argument("--run-dir", required=True)
    p_eval.add_argument("--score-rule", default=SCORE_RULES[0], choices=SCORE_RULES)
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    """Run one verb and map its failure to an exit code. numpy's overflow and invalid
    warnings are off: every non-finite value a verb makes meets a check that exits 2 or 3."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as err:
        print(str(err), file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return 2
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        if err.runlog.iterations:
            print(json.dumps(err.runlog.iterations[-1]), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
