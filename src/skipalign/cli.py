"""Experiment runner.

Verbs:
  run       train + evaluate one configuration into a fresh run directory
  sweep     repeat a run across one axis (eta_id, r_u, loss_combo, lambda_sna)
  eval      re-score a finished run's checkpoint
  gradcheck execute the gradient-oracle suite
  golden    compare against (or regenerate, with --write) the golden files

Every verb reads its config file through `config.read_raw`, exactly as
written; the file and `--seed` are a run's only inputs. Run directories are
content-addressed by config hash and seed; an existing directory is refused
unless --force is given. A run's manifest is written first with status
"running" and ends "complete", "diverged" or "error"; a failed run keeps its
directory. Exit codes: 0 success, 1 a `golden` or `gradcheck` check failed,
2 invalid config or usage (a missing, unreadable or misplaced path
included), 3 training diverged.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, ExperimentConfig, config_hash, default_config, load_config,
                     read_raw, resolve_config)
from .metrics import (SCORE_RULES, EvalReport, evaluate, write_embedding_dump, write_eval_csv,
                      write_eval_json)
from .linalg import unit_rows
from .net import NetSpec, load_checkpoint, save_checkpoint
from .prototypes import PrototypeSet
from .sna import LOSS_COMBOS
from .synthdata import PlacementError, generate, write_manifest, write_split_csv
from .trainer import TrainingDiverged, train

SWEEP_AXES = ("eta_id", "r_u", "loss_combo", "lambda_sna")


def apply_axis(raw: dict, axis: str, value) -> dict:
    """Set one sweep axis on a raw (unresolved) config dict."""
    raw = json.loads(json.dumps(raw))
    train = raw.setdefault("train", {})
    if axis == "eta_id":
        train["eta_id"] = float(value)
    elif axis == "r_u":
        train["r_u"] = float(value)
    elif axis == "lambda_sna":
        train.setdefault("head", {})["lambda_sna"] = float(value)
    elif axis == "loss_combo":
        if value not in LOSS_COMBOS:
            raise ConfigError("values", f"unknown loss combo '{value}'")
        train.setdefault("sna", {}).update(LOSS_COMBOS[value])
    else:
        raise ConfigError("axis", f"unknown sweep axis '{axis}'")
    return raw


def run_experiment(cfg: ExperimentConfig, out_root: Path, force: bool = False,
                   extra_manifest: dict | None = None) -> tuple[Path, EvalReport]:
    """Full pipeline: generate, train, evaluate, persist artifacts."""
    out_root = Path(out_root)
    run_dir = out_root / f"{config_hash(cfg)[:12]}-s{cfg.seed}"
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
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": cfg.resolved_dict(),
        "outputs": {
            "runlog": "runlog.jsonl",
            "checkpoint": "checkpoint.json",
            "prototypes": "prototypes.json",
            "eval_report": "eval_report.json",
            "metrics": "metrics.csv",
            "embeddings": "embeddings.csv",
            "split": "split.csv",
            "scenario_manifest": "scenario_manifest.json",
        },
        "status": "running",
        "wall_clock_s": None,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    _write_manifest(manifest, run_dir / "manifest.json")

    try:
        write_manifest(split, run_dir / "scenario_manifest.json")
        write_split_csv(split, run_dir / "split.csv")

        params, runlog = train(split, cfg.net, cfg.train)
        runlog.write_jsonl(run_dir / "runlog.jsonl")
        save_checkpoint(params, run_dir / "checkpoint.json")
        _write_prototypes(runlog.final_prototypes, run_dir / "prototypes.json")

        report = runlog.final_report
        write_eval_json(report, run_dir / "eval_report.json")
        write_eval_csv(report, run_dir / "metrics.csv")
        write_embedding_dump(params, split, run_dir / "embeddings.csv")
    except BaseException as err:
        # The run directory stays, marked as failed, for inspection.
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
    payload = {
        "mu": protos.mu.tolist(),
        "mu_labeled": protos.mu_labeled.tolist(),
        "mu_unlabeled": protos.mu_unlabeled.tolist(),
        "n_labeled": protos.n_labeled.tolist(),
        "n_unlabeled": protos.n_unlabeled.tolist(),
        "gamma": protos.gamma,
        "r_u": protos.r_u,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _load_prototypes(path: Path, spec: NetSpec) -> PrototypeSet:
    """The saved prototypes; mu must be a finite (num_classes, embed_dim) matrix of
    the checkpoint's spec, with no zero row."""
    with open(path) as fh:
        payload = json.load(fh)
    mu = np.array(payload["mu"], dtype=np.float64)
    if mu.shape != (spec.num_classes, spec.embed_dim):
        raise ValueError(f"mu has shape {mu.shape}, the checkpoint needs "
                         f"({spec.num_classes}, {spec.embed_dim})")
    unit_rows(mu)  # finite, and no degenerate row
    return PrototypeSet(
        mu=mu, mu_labeled=np.array(payload["mu_labeled"]),
        mu_unlabeled=np.array(payload["mu_unlabeled"]),
        n_labeled=np.array(payload["n_labeled"], dtype=np.int64),
        n_unlabeled=np.array(payload["n_unlabeled"], dtype=np.int64),
        gamma=payload["gamma"], r_u=payload["r_u"],
    )


def _load_artifact(load, path: Path, *args):
    """load(path, *args), with a file that does not parse or holds bad values reported
    as usage error naming it."""
    try:
        return load(path, *args)
    except (ValueError, KeyError, TypeError) as err:  # JSONDecodeError is a ValueError
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


def _cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    cfg = load_config(run_dir / "manifest.json")
    params = _load_artifact(load_checkpoint, run_dir / "checkpoint.json")
    if cfg.net != params.spec:
        raise ConfigError(str(run_dir / "manifest.json"),
                          "net does not match the spec in checkpoint.json")
    protos = _load_artifact(_load_prototypes, run_dir / "prototypes.json", params.spec)
    split = generate(cfg.scenario)
    rule = args.score_rule or cfg.train.score_rule
    report = evaluate(params, split, protos, score_rule=rule)
    out_path = run_dir / f"rescore_{rule}.json"
    write_eval_json(report, out_path)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    from .oracles import run_gradcheck_suite
    results = run_gradcheck_suite(verbose=True)
    return 0 if all(passed for _, passed, _ in results) else 1


def _cmd_golden(args) -> int:
    import tempfile

    golden_path = Path(args.golden_path)
    cfg = load_config(args.config) if args.config else default_config()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, _ = run_experiment(cfg, Path(tmp))
        fresh = (run_dir / "metrics.csv").read_bytes()
    if args.write:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_bytes(fresh)
        print(f"golden file written: {golden_path}")
        return 0
    if not golden_path.exists():
        print(f"golden file missing: {golden_path} (run with --write)", file=sys.stderr)
        return 1
    if golden_path.read_bytes() == fresh:
        print("golden check passed: metrics identical")
        return 0
    print("golden check FAILED: metrics differ from the committed file", file=sys.stderr)
    return 1


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
    p_eval.add_argument("--score-rule", default=None, choices=SCORE_RULES)
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="run the gradient-oracle suite")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_gold = sub.add_parser("golden", help="check or regenerate golden files")
    p_gold.add_argument("--config", default=None)
    p_gold.add_argument("--golden-path", default="tests/golden/metrics.csv")
    p_gold.add_argument("--write", action="store_true")
    p_gold.set_defaults(func=_cmd_golden)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as err:
        print(str(err), file=sys.stderr)
        return 2
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        if err.last_report is not None:
            print(json.dumps(err.last_report), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
