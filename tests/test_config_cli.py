import collections
import csv
import functools
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import skipalign
from skipalign import metrics, synthdata, trainer
from skipalign.cli import apply_axis, build_parser, main, run_experiment, sweep
from skipalign.config import ConfigError, config_hash, read_raw, resolve_config
from skipalign.heads import compose, normalize
from skipalign.net import forward, load_checkpoint, save_checkpoint
from skipalign.trainer import LEAVES, TrainingDiverged, train
import golden_files


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


TINY_RAW = {
    "seed": 0,
    "scenario": {
        "labels_per_class": 6, "unlabeled_id_per_class": 10,
        "unlabeled_seen_per_cluster": 6, "test_id_per_class": 6,
        "test_seen_per_cluster": 4, "test_unseen_per_cluster": 4,
    },
    "train": {"epochs": 2, "iters_per_epoch": 5, "batch_size": 8},
}

# The package's modules, as `wc -l src/skipalign/*.py` counts them.
SOURCE_MODULES = [
    "__init__.py", "autodiff.py", "cli.py", "config.py", "heads.py", "metrics.py", "net.py",
    "prototypes.py", "sna.py", "synthdata.py", "tensor_losses.py", "trainer.py",
]
# The tape, which only the tests and the benchmark's tracer load.
TAPE_MODULES = ["autodiff.py", "tensor_losses.py"]

# Every settable value of the resolved config, as flatten names it.
SETTABLE_VALUES = [
    "net.backbone_widths", "net.embed_dim", "net.feature_dim", "net.proj_hidden",
    "scenario.input_dim", "scenario.labels_per_class", "scenario.min_separation",
    "scenario.num_classes", "scenario.seen_ood_clusters", "scenario.sigma_strong",
    "scenario.sigma_weak", "scenario.strong_dropout", "scenario.test_id_per_class",
    "scenario.test_seen_per_cluster", "scenario.test_unseen_per_cluster",
    "scenario.unlabeled_id_per_class", "scenario.unlabeled_seen_per_cluster",
    "scenario.unseen_between_hull", "scenario.unseen_ood_clusters",
    "seed",
    "train.batch_size", "train.epochs", "train.eta_id", "train.gamma", "train.gate_temperature",
    "train.head.eta_neg", "train.head.lambda_cc", "train.head.lambda_em", "train.head.lambda_neg",
    "train.head.lambda_od", "train.head.lambda_sna", "train.head.lambda_socr",
    "train.head.lambda_u", "train.head.tau_pl", "train.iters_per_epoch", "train.lr0",
    "train.r_u", "train.sna.lambda_ia", "train.sna.lambda_pa", "train.sna.lambda_usna",
    "train.sna.temperature", "train.tau_id",
]


def flatten(d: dict, prefix: str = "") -> dict:
    """A nested config as {"section.field": its JSON text}."""
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(flatten(v, key + "."))
        else:
            out[key] = json.dumps(v)
    return out


class TestConfigResolution:
    def test_seed_is_required(self):
        with pytest.raises(ConfigError, match="seed: missing required field"):
            resolve_config({})

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="optimizer"):
            resolve_config({"seed": 0, "optimizer": {}})

    def test_unknown_nested_field_named(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            resolve_config({"seed": 0, "train": {"learning_rate": 0.1}})

    def test_invalid_value_names_section(self):
        with pytest.raises(ConfigError, match="scenario"):
            resolve_config({"seed": 0, "scenario": {"num_classes": 0}})

    def test_sub_seeds_derived_from_top_seed(self):
        cfg = resolve_config({"seed": 10})
        assert cfg.scenario.seed == 10
        assert cfg.net.seed == 11
        assert cfg.train.seed == 12

    def test_seed_override_rederives_sub_seeds(self):
        cfg = resolve_config({"seed": 10}, seed_override=3)
        assert cfg.seed == 3 and cfg.scenario.seed == 3
        assert cfg.net.seed == 4 and cfg.train.seed == 5

    def test_net_dimensions_follow_scenario(self):
        cfg = resolve_config({"seed": 0, "scenario": {"input_dim": 10, "num_classes": 3}})
        assert cfg.net.input_dim == 10 and cfg.net.num_classes == 3

    def test_mismatched_net_dimension_rejected(self):
        # The network's dimensions are the scenario's: a file cannot set another.
        with pytest.raises(ConfigError, match="net.input_dim: unknown field"):
            resolve_config({"seed": 0, "net": {"input_dim": 7}})

    def test_gamma_must_agree(self):
        # gamma lives in train alone, so there is no second copy to disagree
        with pytest.raises(ConfigError, match="scenario.gamma"):
            resolve_config({"seed": 0, "scenario": {"gamma": 3.0}})
        cfg = resolve_config({"seed": 0, "train": {"gamma": 3.0, "batch_size": 2}})
        assert cfg.train.gamma == 3.0 and cfg.train.unlabeled_batch == 6

    @pytest.mark.parametrize("gamma", [1e-300, 0.01, -2.0, 1e300])
    def test_unlabeled_batch_bounded(self, gamma):
        # gamma * batch_size rows per step: none is an empty batch, and 1e300 * 16 rows
        # could never be drawn. Neither is trained here.
        with pytest.raises(ConfigError, match=r"train: gamma \* batch_size must be an integer "
                                              rf"in \[1, {sys.maxsize}\]"):
            resolve_config({"seed": 0, "train": {"gamma": gamma}})

    @pytest.mark.parametrize("field", ["train.tau_proto", "train.eta_proto", "train.eval_every",
                                       "train.log_gate_details", "scenario.gamma",
                                       "net.proj_nonlinear", "scenario.seen_placement",
                                       "scenario.max_placement_tries", "scenario.seed",
                                       "net.seed", "train.seed", "net.input_dim",
                                       "net.num_classes", "scenario.id_mean_radius",
                                       "scenario.seen_ood_mean_radius",
                                       "scenario.unseen_ood_mean_radius", "scenario.id_scale",
                                       "scenario.seen_ood_scale", "scenario.unseen_ood_scale",
                                       "scenario.between_hull_scale", "train.momentum",
                                       "train.weight_decay", "train.score_rule"])
    def test_removed_field_unknown(self, tmp_path, capsys, field):
        # Fields that only copied or derived from another one, that nothing set,
        # that chose a path no run took, or that every caller left at the value
        # that is now a constant: a manifest that still carries one, at its old
        # value for seed 0, is refused, naming it.
        old_values = {"train.tau_proto": 0.99, "train.eta_proto": 0.5, "train.eval_every": 0,
                      "train.log_gate_details": True, "scenario.gamma": 2.0,
                      "net.proj_nonlinear": True, "scenario.seen_placement": "between",
                      "scenario.max_placement_tries": 500, "scenario.seed": 0, "net.seed": 1,
                      "train.seed": 2, "net.input_dim": 16, "net.num_classes": 4,
                      "scenario.id_mean_radius": 5.0, "scenario.seen_ood_mean_radius": 5.0,
                      "scenario.unseen_ood_mean_radius": 6.5, "scenario.id_scale": 0.7,
                      "scenario.seen_ood_scale": 0.9, "scenario.unseen_ood_scale": 0.9,
                      "scenario.between_hull_scale": 1.6, "train.momentum": 0.9,
                      "train.weight_decay": 5e-4, "train.score_rule": "ova_id_at_cc_argmax"}
        section, name = field.split(".")
        raw = {"seed": 0, section: {name: old_values[field]}}
        assert main(["run", "--config", write_config(tmp_path, raw), "--dry-run"]) == 2
        assert f"{field}: unknown field" in capsys.readouterr().err

    def test_settable_values_pinned(self):
        # A new option shows up here as a reviewed diff.
        assert sorted(flatten(resolve_config({"seed": 0}).resolved_dict())) == SETTABLE_VALUES

    def test_modules_pinned(self):
        # A new module shows up here as a reviewed diff.
        import skipalign
        package = Path(skipalign.__file__).parent
        assert sorted(path.name for path in package.glob("*.py")) == SOURCE_MODULES

    def test_every_exported_name_resolves(self):
        # A stale export of a removed name fails the star import.
        import skipalign
        namespace: dict = {}
        exec("from skipalign import *", namespace)
        assert set(skipalign.__all__) <= set(namespace)

    def test_resolved_dict_round_trips(self):
        # The derived values are left out, and derive again to the same config.
        for raw in ({"seed": 4}, {"seed": 7, "scenario": {"input_dim": 10, "num_classes": 3}}):
            cfg = resolve_config(raw)
            again = resolve_config(cfg.resolved_dict())
            assert again == cfg
            assert config_hash(again) == config_hash(cfg)

    def test_integer_and_float_spellings_are_one_config(self):
        # A float field stores its value as a float, so 1 and 1.0 give one config hash;
        # and as 0.0 for -0.0, which equals 0.0 but is written as another JSON number.
        for field, a, b in (("lr0", 1, 1.0), ("eta_id", -0.0, 0)):
            one, other = (resolve_config({"seed": 0, "train": {field: value}})
                          for value in (a, b))
            assert config_hash(one) == config_hash(other)
            assert json.dumps(one.resolved_dict()) == json.dumps(other.resolved_dict())
            assert type(getattr(one.train, field)) is float

    def test_environment_is_not_an_input(self, tmp_path, monkeypatch, capsys):
        # The file and --seed are a run's only inputs.
        path = write_config(tmp_path, {"seed": 0, "train": {"lr0": 0.02}})
        monkeypatch.setenv("SKIPALIGN_TRAIN__LR0", "0.025")
        assert main(["run", "--config", path, "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["train"]["lr0"] == 0.02

    def test_range_bounds_hold_at_their_edges(self):
        # The largest float64 is finite, so a float field takes it; the seed's range,
        # [0, 2**128), takes its last value and refuses the next, naming seed.
        big = resolve_config({"seed": 0, "train": {"sna": {"temperature": sys.float_info.max}}})
        assert big.train.sna.temperature == sys.float_info.max
        assert resolve_config({"seed": 2**128 - 1}).seed == 2**128 - 1
        with pytest.raises(ConfigError, match=r"^seed: must be an integer in \[0, 2\*\*128\)"):
            resolve_config({"seed": 2**128})

    @pytest.mark.parametrize("raw, field", [
        ({"seed": 0, "train": {"sna": {"temperature": float("nan")}}}, "train.sna.temperature"),
    ], ids=["json-nan"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, raw, field):
        path = write_config(tmp_path, raw)  # json writes a float NaN as the literal NaN
        with pytest.raises(ConfigError, match=f"{field}: must be finite"):
            resolve_config(read_raw(path))
        assert main(["run", "--config", path, "--dry-run"]) == 2
        assert field in capsys.readouterr().err


# Scenarios at the edges of what resolve_config accepts: one labeled row per class, one
# galaxy and two, no seen and no unseen clusters, every unseen cluster between the
# galaxies, and no OOD test rows.
BOUNDARY_SCENARIOS = {
    "one-label": {"labels_per_class": 1},
    "one-class": {"num_classes": 1},
    "two-class": {"num_classes": 2},
    "no-seen": {"seen_ood_clusters": 0},
    "no-unseen": {"unseen_ood_clusters": 0, "unseen_between_hull": 0},
    "all-between": {"unseen_between_hull": 3},
    "no-test-ood": {"test_seen_per_cluster": 0, "test_unseen_per_cluster": 0},
}


class TestBoundaryGuarantees:
    """`net.forward`, `metrics.auroc` and `prototypes.refresh` do not check their inputs:
    what the config and the data generator guarantee makes them well formed."""

    @pytest.mark.parametrize("scenario", BOUNDARY_SCENARIOS.values(),
                             ids=list(BOUNDARY_SCENARIOS))
    def test_inputs_behind_the_boundary_are_well_formed(self, monkeypatch, scenario):
        raw = json.loads(json.dumps(TINY_RAW))
        raw["scenario"].update(scenario)
        raw["train"].update(epochs=1, iters_per_epoch=2)
        cfg = resolve_config(raw)
        s, k = cfg.scenario, cfg.net.num_classes
        split = synthdata.generate(s)
        assert np.array_equal(np.unique(split.labeled_y), np.arange(k))
        for x in (split.labeled_x, split.unlabeled_x, split.test_x):  # what forward reads
            assert x.dtype == np.float64 and x.shape[1] == cfg.net.input_dim
        refreshed, scored = [], []
        real_refresh, real_auroc = trainer.refresh, metrics.auroc
        monkeypatch.setattr(trainer, "refresh", lambda *a: refreshed.append(a) or real_refresh(*a))
        monkeypatch.setattr(metrics, "auroc", lambda *a: scored.append(a) or real_auroc(*a))
        params, runlog = train(split, cfg.net, cfg.train)
        report = metrics.evaluate(params, split, runlog.final_prototypes.unit_directions())[0]
        # Every refresh has labeled rows of every class, and pseudo-labels below K.
        assert len(refreshed) == 2
        for labeled, unlabeled, *_ in refreshed:
            assert np.array_equal(np.unique(labeled.labels), np.arange(k))
            assert unlabeled is None or np.isin(unlabeled.labels, np.arange(k)).all()
        # One AUROC per OOD source with test rows, each of two non-empty float64 vectors.
        sources = (s.seen_ood_clusters * s.test_seen_per_cluster > 0) + (
            s.unseen_ood_clusters if s.test_unseen_per_cluster else 0)
        assert len(scored) == len(report.auroc_per_source) == sources
        for scores in (v for pair in scored for v in pair):
            assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
            assert scores.ndim == 1 and scores.size > 0


class TestCliRun:
    def test_dry_run_prints_and_touches_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        code = main(["run", "--config", path, "--out", str(out_dir), "--dry-run"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["seed"] == 0
        assert printed["train"]["epochs"] == 2
        assert not out_dir.exists()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        assert main(["run", "--config", path, "--dry-run"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_score_rule_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"seed": 0, "train": {"score_rule": "bogus"}})
        assert main(["run", "--config", path, "--dry-run"]) == 2
        assert "train.score_rule: unknown field" in capsys.readouterr().err

    def test_run_writes_all_artifacts(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        # The exact list: a new or leftover artifact is a reviewed change to this test.
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "checkpoint.json", "embeddings.csv", "eval_report.json", "gate.npz",
            "manifest.json", "metrics.csv", "prototypes.json", "runlog.jsonl", "split.csv"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert list(manifest) == ["format_version", "package_version", "config", "clusters",
                                  "status", "wall_clock_s"]
        assert manifest["config"]["seed"] == 0
        assert manifest["status"] == "complete"
        assert manifest["wall_clock_s"] is not None

    def test_existing_run_dir_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 2
        assert "exists" in capsys.readouterr().err
        assert main(["run", "--config", path, "--out", str(out_dir), "--force"]) == 0

    def test_manifest_reproduces_metrics_exactly(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 0
        run_dir = next((tmp_path / "a").iterdir())
        manifest_path = str(run_dir / "manifest.json")
        assert main(["run", "--config", manifest_path, "--out", str(tmp_path / "b")]) == 0
        other = next((tmp_path / "b").iterdir())
        assert (run_dir / "metrics.csv").read_bytes() == (other / "metrics.csv").read_bytes()

    def test_seed_flag_changes_run_dir_and_results(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        assert main(["run", "--config", path, "--out", str(out_dir), "--seed", "7"]) == 0
        dirs = sorted(d.name for d in out_dir.iterdir())
        assert len(dirs) == 2
        # A run directory is named by its config's hash, which covers the seed.
        assert dirs == sorted(config_hash(resolve_config(read_raw(path), seed_override=seed))[:12]
                              for seed in (0, 7))

    def test_divergent_training_exits_3(self, tmp_path, capsys):
        # 3 x 5 fails in a step's forward; 1 x 3 in the epoch-end prototype refresh.
        for epochs, iters in ((3, 5), (1, 3)):
            raw = json.loads(json.dumps(TINY_RAW))
            raw["train"].update(lr0=1e6, epochs=epochs, iters_per_epoch=iters)
            path = write_config(tmp_path, raw)
            assert main(["run", "--config", path, "--out", str(tmp_path / "runs")]) == 3
            assert "diverged" in capsys.readouterr().err

    def test_diverged_run_leaves_manifest_and_split(self, tmp_path, capsys):
        # A diverged run keeps what explains it: its manifest, with the cluster table,
        # and the split it trained on, as the complete run of the same data writes them,
        # and the steps it logged: a runlog line and a gate.npz row each, the last line
        # the one the command line reports.
        raw = json.loads(json.dumps(TINY_RAW))
        raw["train"].update(lr0=1e6, epochs=3, iters_per_epoch=5)
        complete = write_config(tmp_path, TINY_RAW)
        diverging = write_config(tmp_path, raw, "diverging.json")
        assert main(["run", "--config", complete, "--out", str(tmp_path / "complete")]) == 0
        capsys.readouterr()
        assert main(["run", "--config", diverging, "--out", str(tmp_path / "diverged")]) == 3
        message, report = capsys.readouterr().err.splitlines()
        [done], [failed] = (list((tmp_path / out).iterdir()) for out in ("complete", "diverged"))
        assert sorted(path.name for path in failed.iterdir()) == [
            "gate.npz", "manifest.json", "runlog.jsonl", "split.csv"]
        manifest = json.loads((failed / "manifest.json").read_text())
        assert manifest["status"] == "diverged" and manifest["wall_clock_s"] is None
        assert manifest["clusters"] == json.loads((done / "manifest.json").read_text())["clusters"]
        assert (failed / "split.csv").read_bytes() == (done / "split.csv").read_bytes()
        lines = [json.loads(line) for line in (failed / "runlog.jsonl").read_text().splitlines()]
        assert message.startswith("training diverged: ")
        # It diverged in its first epoch: every line is a step's, and none an epoch's.
        assert not any("epoch" in line for line in lines)
        assert [line["step"] for line in lines] == list(range(len(lines)))
        assert lines and lines[-1] == json.loads(report)
        with np.load(failed / "gate.npz") as gate:
            assert {name: gate[name].shape for name in gate} == dict.fromkeys(
                ("cc_conf", "od_conf", "pred_class"), (len(lines), 16))

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # Arrays numpy can size but the host cannot hold: one line, no traceback. The
        # data's generation raises here as numpy's allocator would on such a request.
        def generate(spec):
            raise MemoryError("Unable to allocate 2.73 PiB for an array with shape "
                              "(480000000000000, 32) and data type float64")

        monkeypatch.setattr("skipalign.cli.generate", generate)
        argv = ["run", "--config", write_config(tmp_path, TINY_RAW), "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "out of memory: Unable to allocate 2.73 PiB for an array with shape "
            "(480000000000000, 32) and data type float64"]

    def test_huge_batch_exits_2_at_once(self, tmp_path, capsys):
        # A labeled batch of 10**16 rows resolves (its unlabeled batch is one row); the
        # sampler asks numpy for the batch's index array in one request, which it refuses.
        raw = {"seed": 0, "train": {"batch_size": 10**16, "gamma": 1e-16}}
        argv = ["run", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "runs")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("out of memory: Unable to allocate")
        [run_dir] = (tmp_path / "runs").iterdir()
        assert json.loads((run_dir / "manifest.json").read_text())["status"] == "error"

    @pytest.mark.parametrize("fault, message", [
        ("nan-activation", "non-finite activation in layer 'backbone'"),
        ("zero-embedding-row", "degenerate vector"),
        ("zero-prototypes", "degenerate vector"),
    ])
    def test_degenerate_step_exits_3(self, tmp_path, capsys, monkeypatch, fault, message):
        import skipalign.trainer as trainer_mod
        real_augment, real_init = trainer_mod.augment_views, trainer_mod.init_params

        def augment_views(labeled, unlabeled, rng, scenario):
            views = real_augment(labeled, unlabeled, rng, scenario)
            b, u = len(labeled), len(unlabeled)  # rows of [x_w; u_w; u_w2; u_s]
            if fault == "nan-activation":
                views[b + 2 * u, 0] = np.nan  # the strong view's first row
            elif fault == "zero-embedding-row":
                views[b] = 0.0  # u_w's first row: with zero biases its embedding is zero
            return views

        def init_params(spec):
            params = real_init(spec)
            for name, view in params.views.items():
                if name.endswith(".b") or (fault == "zero-prototypes"
                                           and name.startswith("proj")):
                    view[:] = 0.0
            return params

        monkeypatch.setattr(trainer_mod, "augment_views", augment_views)
        monkeypatch.setattr(trainer_mod, "init_params", init_params)
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "training diverged" in err and message in err
        manifest = json.loads((next(out_dir.iterdir()) / "manifest.json").read_text())
        assert manifest["status"] == "diverged"

    def test_unevaluable_trained_parameters_exit_3(self, tmp_path):
        # Training ends, but its final prototypes have no unit rows: the run diverged,
        # and reports its last step. The overflows on the way are what the check reports,
        # so the command line, run with warnings shown, prints nothing else.
        raw = {"seed": 0, "train": {"epochs": 1, "iters_per_epoch": 2,
                                    "head": {"lambda_em": 1e21}}}
        out_dir = tmp_path / "runs"
        child = subprocess.run([sys.executable, "-W", "default", "-m", "skipalign.cli", "run",
                                "--config", write_config(tmp_path, raw), "--out", str(out_dir)],
                               env=child_env(), capture_output=True, text=True)
        assert child.returncode == 3, child.stderr
        message, last = child.stderr.splitlines()
        assert message == ("training diverged: degenerate vector: cannot normalize a zero "
                           "or non-finite row")
        assert json.loads(last)["step"] == 1
        manifest = json.loads((next(out_dir.iterdir()) / "manifest.json").read_text())
        assert manifest["status"] == "diverged"

    def test_force_replaces_run_dir_with_subdirectory(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        (run_dir / "plots").mkdir()
        (run_dir / "plots" / "loss.png").write_bytes(b"")
        assert main(["run", "--config", path, "--out", str(out_dir), "--force"]) == 0
        assert not (run_dir / "plots").exists()
        assert (run_dir / "metrics.csv").exists()


class TestCliEval:
    def test_rescore_matches_original(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        capsys.readouterr()
        assert main(["eval", "--run-dir", str(run_dir)]) == 0
        written = (run_dir / "rescore_ova_id_at_cc_argmax.json").read_bytes()
        assert written == (run_dir / "eval_report.json").read_bytes()
        # eval prints the text it wrote, and every call parses with the one parser.
        assert capsys.readouterr().out == written.decode() + "\n"
        assert build_parser() is build_parser()

    def test_rescore_with_alternative_rule(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        assert main(["eval", "--run-dir", str(run_dir),
                     "--score-rule", "max_cc_softmax"]) == 0
        rescored = json.loads((run_dir / "rescore_max_cc_softmax.json").read_text())
        assert rescored["score_rule"] == "max_cc_softmax"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--run-dir", str(run_dir), "--score-rule", "bogus"])
        assert exc.value.code == 2
        assert not (run_dir / "rescore_bogus.json").exists()

    def test_run_without_ood_rows_writes_strict_json(self, tmp_path):
        # No OOD source: every AUC is absent, null in the JSON reports and nan in metrics.csv.
        raw = json.loads(json.dumps(TINY_RAW))
        raw["scenario"].update(seen_ood_clusters=0, unseen_ood_clusters=0,
                               unseen_between_hull=0)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        for rule in metrics.SCORE_RULES:
            assert main(["eval", "--run-dir", str(run_dir), "--score-rule", rule]) == 0

        def no_constants(token):
            raise ValueError(f"{token} is not JSON")

        reports = ["eval_report.json"] + [f"rescore_{rule}.json" for rule in metrics.SCORE_RULES]
        for name in reports:
            report = json.loads((run_dir / name).read_text(), parse_constant=no_constants)
            assert report["auroc_per_source"] == {}
            assert [report[k] for k in ("seen_auc", "unseen_auc", "overall_auc")] == [None] * 3
            assert report["accuracy"] is not None
        with open(run_dir / "metrics.csv", newline="") as fh:
            rows = dict(csv.reader(fh))
        assert [rows[k] for k in ("seen_auc", "unseen_auc", "overall_auc")] == ["nan"] * 3


class TestCliSweep:
    @pytest.mark.parametrize("text, axis, values, field", [
        (json.dumps(TINY_RAW), "bogus", "1", "axis"),
        ("{not json", "eta_id", "0.5", "<file>"),
        ("[1, 2]", "eta_id", "0.5", "<root>"),
        (json.dumps(TINY_RAW), "eta_id", "0.5,high", "values"),
        (json.dumps({**TINY_RAW, "optimizer": {}}), "eta_id", "", "optimizer"),
        (json.dumps(TINY_RAW), "eta_id", "0.5,0.50", "values"),
        (json.dumps(TINY_RAW), "eta_id", "0,-0", "values"),
    ], ids=["unknown-axis", "invalid-json", "non-object", "non-numeric-value",
            "invalid-base-empty-values", "repeated-value", "signed-zero"])
    def test_unknown_axis_exits_2(self, tmp_path, capsys, text, axis, values, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(path), "--axis", axis,
                     "--values", values, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_emit_empty_table(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out = tmp_path / "s"
        assert main(["sweep", "--config", path, "--axis", "eta_id",
                     "--values", "", "--out", str(out)]) == 0
        lines = (out / "sweep_eta_id.csv").read_text().splitlines()
        assert lines == ["eta_id,accuracy,seen_auc,unseen_auc,overall_auc"]

    def test_eta_sweep_table_schema(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out = tmp_path / "s"
        assert main(["sweep", "--config", path, "--axis", "eta_id",
                     "--values", "0,0.5", "--out", str(out)]) == 0
        lines = (out / "sweep_eta_id.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.0,") and lines[2].startswith("0.5,")

    def test_loss_combo_values(self, tmp_path):
        rows = sweep(TINY_RAW, "loss_combo", ["none", "all"], tmp_path / "s")
        assert [r["value"] for r in rows] == ["none", "all"]

    def test_sweep_isolation_manifest_diff(self, tmp_path):
        rows = sweep(TINY_RAW, "eta_id", [0.0, 0.9], tmp_path / "s")
        manifests = []
        for row in rows:
            with open(os.path.join(row["run_dir"], "manifest.json")) as fh:
                manifests.append(json.load(fh)["config"])

        a, b = (flatten(m) for m in manifests)
        assert a.keys() == b.keys()
        changed = {k for k in a if a[k] != b[k]}
        # the swept value is the only one that moves
        assert changed == {"train.eta_id"}

    def test_lambda_sna_values(self, tmp_path):
        raw = {**TINY_RAW, "train": {"epochs": 1, "iters_per_epoch": 2, "batch_size": 8}}
        rows = sweep(raw, "lambda_sna", ["0.1", "0.3"], tmp_path / "s")
        manifests = [json.loads((Path(row["run_dir"]) / "manifest.json").read_text())
                     for row in rows]
        assert [m["config"]["train"]["head"]["lambda_sna"] for m in manifests] == [0.1, 0.3]
        assert [m["sweep"] for m in manifests] == [{"axis": "lambda_sna", "value": 0.1},
                                                   {"axis": "lambda_sna", "value": 0.3}]

    def test_apply_axis_rejects_unknown_combo(self):
        with pytest.raises(ConfigError):
            apply_axis(TINY_RAW, "loss_combo", "everything")


# Small runs for the exit-code table: one epoch of three steps.
EDGE_RAW = {**TINY_RAW, "train": {"epochs": 1, "iters_per_epoch": 3, "batch_size": 8}}


def append_bytes(path):
    path.write_bytes(path.read_bytes() + b"}")


def drop_mu(path):
    payload = json.loads(path.read_text())
    del payload["mu"]
    path.write_text(json.dumps(payload))


def set_mu(change):
    """A damage that replaces prototypes.json's mu by change(mu): it still parses."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["mu"] = change(payload["mu"])
        path.write_text(json.dumps(payload))
    return damage


def set_status(status):
    """A damage that marks manifest.json's run with another status."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["status"] = status
        path.write_text(json.dumps(payload))
    return damage


def add_spec_key(key, value):
    """A damage that adds one key to checkpoint.json's network spec, as a checkpoint
    written before that field was removed still carries it."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["spec"][key] = value
        path.write_text(json.dumps(payload))
    return damage


def set_params(value):
    """A damage that sets every parameter in checkpoint.json to value: it still loads."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["params_hex"] = [float(value).hex()] * len(payload["params_hex"])
        path.write_text(json.dumps(payload))
    return damage


def set_views(values):
    """A damage that sets each named parameter block in checkpoint.json to one value."""
    def damage(path):
        params = load_checkpoint(path)
        for name, value in values.items():
            params.views[name][...] = value
        save_checkpoint(params, path)
    return damage


def set_literal(keys, literal):
    """A damage that sets the JSON value at the key path keys to literal, written as
    is: a number such as 1e400 that json.dumps would write as Infinity."""
    def damage(path):
        payload = json.loads(path.read_text())
        owner = payload
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = "<literal>"
        path.write_text(json.dumps(payload).replace('"<literal>"', literal))
    return damage


def wrap_in_list(path):
    path.write_text(json.dumps([json.loads(path.read_text())]))


def keep_only_mu(path):
    path.write_text(json.dumps({"mu": json.loads(path.read_text())["mu"]}))


def drop_config(path):
    payload = json.loads(path.read_text())
    del payload["config"]
    path.write_text(json.dumps(payload))


def set_scenario(key, value):
    """A damage that sets one key in manifest.json's scenario config."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["config"]["scenario"][key] = value
        path.write_text(json.dumps(payload))
    return damage


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run_dir, _ = run_experiment(resolve_config(EDGE_RAW), tmp_path_factory.mktemp("finished"))
    return run_dir


def deny_reading(monkeypatch, argv):
    """Make config reads of the run's config fail as for a file without read
    permission; a test run as root cannot get that from chmod."""
    path = argv[2]

    def guarded_open(file, *args, **kwargs):
        if str(file) == path:
            raise PermissionError(13, "Permission denied", path)
        return open(file, *args, **kwargs)
    monkeypatch.setattr("skipalign.config.open", guarded_open, raising=False)


# A file name longer than the 255 bytes a path component may take.
LONG_NAME = "n" * 300


def rename_long(flag):
    """A change that gives the path after flag a last component of LONG_NAME."""
    def change(monkeypatch, argv):
        at = argv.index(flag) + 1
        argv[at] = str(Path(argv[at]).parent / LONG_NAME)
    return change


def nest(path, depth=100_000):
    """Overwrite path with JSON lists nested depth deep, beyond what json decodes."""
    path.write_text("[" * depth + "]" * depth)


def nest_config(monkeypatch, argv):
    nest(Path(argv[2]))


class TestExitCodes:
    """The exit-code contract at the edges: 0 success, 2 invalid config or
    usage (naming the field or file), 3 divergence."""

    @pytest.mark.parametrize("verb, change, code, named", [
        ("run", {"seed": 0}, 0, None),
        ("run", {"seed": 10**23}, 0, None),
        ("run", {"seed": 10**300}, 2, "seed: must be an integer in [0, 2**128)"),
        ("run", {"seed": -1}, 2, "seed"),
        ("run", {"scenario": {"seed": -1}}, 2, "scenario.seed: unknown field"),
        ("run", {"net": {"seed": -1}}, 2, "net.seed: unknown field"),
        ("run", {"train": {"seed": -1}}, 2, "train.seed: unknown field"),
        ("run", {"scenario": {"unlabeled_id_per_class": 0}}, 0, None),
        ("run", {"scenario": {"unlabeled_id_per_class": 0, "unlabeled_seen_per_cluster": 0}},
         2, "scenario.unlabeled_id_per_class"),
        ("run", {"scenario": {"test_id_per_class": 0}}, 2, "scenario.test_id_per_class"),
        ("run", {"scenario": {"min_separation": 1e6}}, 2, "scenario.min_separation"),
        ("run", {"train": {"epochs": "3"}}, 2, "train.epochs"),
        ("run", {"train": {"epochs": True}}, 2, "train.epochs"),
        ("run", {"train": {"epochs": 0}}, 2, "train"),
        ("run", {"scenario": {"input_dim": 16.5}}, 2, "scenario.input_dim"),
        ("run", {"scenario": {"input_dim": 10**23}}, 2, "scenario.input_dim"),
        ("run", {"scenario": {"labels_per_class": 10**23}}, 2, "scenario.labels_per_class"),
        ("run", {"scenario": {"test_id_per_class": 10**23}}, 2, "scenario.test_id_per_class"),
        ("run", {"net": {"embed_dim": 10**23}}, 2, "net.embed_dim"),
        ("run", {"net": {"backbone_widths": [32, 10**23]}}, 2, "net.backbone_widths"),
        # Values in range whose arrays numpy refuses to size, at once and allocating nothing.
        ("run", {"train": {"epochs": 10**15, "iters_per_epoch": 40, "batch_size": 16}}, 2,
         "train: the gate detail"),
        ("run", {"scenario": {"labels_per_class": 10**17}}, 2, "scenario: the split"),
        ("run", {"net": {"backbone_widths": [32, 10**18]}}, 2, "net: the parameter vector"),
        ("run", {"train": {"lr0": 10**400}}, 2, "train.lr0"),
        ("run", {"train": {"sna": {"temperature": 2**70}}}, 0, None),
        ("run", {"scenario": {"sigma_weak": 10**400}}, 2, "scenario.sigma_weak"),
        ("run", {"net": {"proj_nonlinear": "no"}}, 2, "net.proj_nonlinear"),
        ("run", {"net": {"backbone_widths": 32}}, 2, "net.backbone_widths"),
        ("run", {"train": {"head": {"lambda_sna": "0.1"}}}, 2, "train.head.lambda_sna"),
        ("run", {"train": {"sna": [1.0]}}, 2, "train.sna"),
        ("run", {"train": {"gamma": 1e-300}}, 2, "train: gamma * batch_size must be an integer"),
        ("run", {"train": {"lr0": 1e6}}, 3, None),
        ("run", {"train": {"gate_temperature": 1e-310}}, 3, None),
        # The smallest valid value of each range check, on two steps.
        ("run", {"train": {"epochs": 2, "iters_per_epoch": 1}}, 0, None),
        ("run", {"train": {"iters_per_epoch": 2, "batch_size": 1}}, 0, None),
        ("run", {"scenario": {"num_classes": 2}, "train": {"iters_per_epoch": 2}}, 0, None),
        ("run", {"scenario": {"sigma_weak": 0.5, "sigma_strong": 0.5}}, 2,
         "scenario: sigma_weak must be below sigma_strong"),
        ("run", deny_reading, 2, "config.json"),
        ("run", rename_long("--config"), 2, LONG_NAME),
        ("run", rename_long("--out"), 2, LONG_NAME),
        ("eval", rename_long("--run-dir"), 2, LONG_NAME),
        ("run", nest_config, 2, "config.json"),
        ("eval", ("prototypes.json", nest), 2, "prototypes.json"),
        ("eval", ("checkpoint.json", nest), 2, "checkpoint.json"),
        # A batch whose step arrays numpy cannot size: refused before training.
        ("run", {"train": {"batch_size": 2 * 10**18, "gamma": 5e-19}}, 2, "train.batch_size"),
        ("eval", ("checkpoint.json", append_bytes), 2, "checkpoint.json"),
        ("eval", ("prototypes.json", append_bytes), 2, "prototypes.json"),
        ("eval", ("manifest.json", append_bytes), 2, "manifest.json"),
        ("eval", ("prototypes.json", drop_mu), 2, "prototypes.json"),
        ("eval", ("prototypes.json", os.remove), 2, "prototypes.json"),
        ("eval", ("prototypes.json", set_mu(lambda mu: [row[:-1] for row in mu])), 2,
         "prototypes.json"),
        ("eval", ("prototypes.json", set_mu(lambda mu: [[0.0] * len(row) for row in mu])), 2,
         "prototypes.json"),
        ("eval", ("prototypes.json", set_mu(lambda mu: "mu")), 2, "prototypes.json"),
        ("eval", ("manifest.json", set_scenario("input_dim", 12)), 2, "manifest.json"),
        ("eval", ("manifest.json", set_scenario("num_classes", 3)), 2, "manifest.json"),
        ("eval", ("checkpoint.json", add_spec_key("proj_nonlinear", True)), 2,
         "checkpoint.json"),
        ("eval", ("manifest.json", set_status("error")), 2, "manifest.json: status is 'error'"),
        ("eval", ("manifest.json", set_status("running")), 2,
         "manifest.json: status is 'running'"),
        ("eval", ("checkpoint.json", set_params(1e200)), 2,
         "checkpoint.json: cannot be evaluated"),
        ("eval", ("checkpoint.json", set_params(0.0)), 2, "checkpoint.json: cannot be evaluated"),
        # Features whose squares overflow, under finite embeddings and prototypes.
        ("eval", ("checkpoint.json", set_views({"backbone1.b": 1e160, "proj0.W": 0.0,
                                                "proj0.b": 1.0})), 2,
         "checkpoint.json: cannot be evaluated: non-finite feature norm"),
        ("eval", ("manifest.json", drop_config), 2, "manifest.json: config"),
        ("eval", ("manifest.json", set_scenario("min_separation", 1e6)), 2,
         "manifest.json: config: scenario.min_separation"),
        ("eval", ("checkpoint.json", set_literal(("params_hex", 0), '"0x1p+2000"')), 2,
         "checkpoint.json"),
        # Older checkpoints carry a step count, which the config states: ignored,
        # whatever its value.
        ("eval", ("checkpoint.json", set_literal(("step",), "1e400")), 0, None),
        ("eval", ("checkpoint.json", set_literal(("step",), "1.5")), 0, None),
        ("eval", ("checkpoint.json", set_literal(("step",), '"3"')), 0, None),
        ("eval", ("checkpoint.json", set_literal(("step",), "true")), 0, None),
        ("eval", ("checkpoint.json", set_literal(("step",), "-7")), 0, None),
        ("eval", ("checkpoint.json", wrap_in_list), 2, "checkpoint.json"),
        # Older prototypes.json files carry the labeled counts, which the config states:
        # ignored, whatever their value.
        ("eval", ("prototypes.json", set_literal(("n_labeled",), "[1e400, 25, 25, 25]")), 0,
         None),
        ("eval", ("prototypes.json", keep_only_mu), 0, None),
        ("eval", ("checkpoint.json", set_literal(("spec", "backbone_widths"), "[Infinity]")), 2,
         "checkpoint.json"),
        ("eval", ("prototypes.json", set_literal(("mu", 0, 0), str(10**400))), 2,
         "prototypes.json"),
        ("eval", ("prototypes.json", set_literal(("mu", 0, 0), "1e300")), 2, "prototypes.json"),
        ("eval", ("manifest.json", set_scenario("input_dim", 10**23)), 2,
         "manifest.json: config: scenario.input_dim"),
        ("eval", ("manifest.json", set_literal(("config", "train", "lr0"), str(10**400))), 2,
         "manifest.json: config: train.lr0"),
        ("eval", ("manifest.json", set_literal(("config", "net", "seed"), "1")), 2,
         "manifest.json: config: net.seed: unknown field"),
        ("eval", ("manifest.json", set_literal(("config", "train", "score_rule"),
                                               '"ova_id_at_cc_argmax"')), 2,
         "manifest.json: config: train.score_rule: unknown field"),
    ], ids=["zero-seeds", "huge-seed", "seed-beyond-bound", "negative-seed", "negative-scenario-seed",
            "negative-net-seed", "negative-train-seed", "seen-only-pool", "empty-pool",
            "no-id-test-rows",
            "unsatisfiable-separation", "string-epochs", "bool-epochs", "zero-epochs",
            "fractional-input-dim", "huge-input-dim", "huge-labels-per-class",
            "huge-test-id-per-class", "huge-embed-dim", "huge-backbone-width",
            "gate-detail-beyond-numpy", "split-beyond-numpy", "parameter-vector-beyond-numpy",
            "lr0-beyond-float64", "temperature-beyond-int64", "sigma-weak-beyond-float64",
            "string-flag", "scalar-widths", "string-head-weight", "list-section",
            "gamma-empties-batch", "diverging", "gate-temperature-overflows",
            "one-iteration-per-epoch", "batch-of-one", "two-classes", "equal-sigmas",
            "config-unreadable", "config-name-too-long", "out-name-too-long",
            "run-dir-name-too-long", "config-nested-too-deep", "prototypes-nested-too-deep",
            "checkpoint-nested-too-deep", "batch-beyond-numpy",
            "checkpoint-appended", "prototypes-appended", "manifest-appended",
            "prototypes-key-missing", "prototypes-missing", "prototypes-mu-column-dropped",
            "prototypes-mu-zero-rows", "prototypes-mu-string", "manifest-input-dim",
            "manifest-num-classes", "checkpoint-spec-removed-key", "eval-status-error",
            "eval-status-running", "checkpoint-overflows", "checkpoint-zero",
            "checkpoint-feature-norm-overflows",
            "manifest-config-missing", "manifest-unplaceable", "checkpoint-hex-overflows",
            "checkpoint-step-overflows", "checkpoint-step-fractional", "checkpoint-step-string",
            "checkpoint-step-bool", "checkpoint-step-negative",
            "checkpoint-root-list", "prototypes-count-overflows",
            "prototypes-only-mu", "checkpoint-widths-infinite", "prototypes-mu-overflows",
            "prototypes-mu-norm-overflows",
            "manifest-huge-input-dim", "manifest-lr0-beyond-float64", "manifest-net-seed",
            "manifest-score-rule"])
    def test_exit_code(self, tmp_path, capsys, monkeypatch, finished_run, verb, change, code,
                       named):
        if verb == "run":
            raw = json.loads(json.dumps(EDGE_RAW))
            for section, value in ({} if callable(change) else change).items():
                if isinstance(value, dict):
                    raw.setdefault(section, {}).update(value)
                else:
                    raw[section] = value
            argv = ["run", "--config", write_config(tmp_path, raw), "--out",
                    str(tmp_path / "runs")]
        else:
            run_dir = tmp_path / "run"
            shutil.copytree(finished_run, run_dir)
            if not callable(change):
                name, damage = change
                damage(run_dir / name)
            argv = ["eval", "--run-dir", str(run_dir)]
        if callable(change):  # a change to the command line or to what it reads
            change(monkeypatch, argv)
        assert main(argv) == code
        if code == 2:
            assert named in capsys.readouterr().err
        if verb == "run" and code == 2:  # a config error is raised before any run directory
            assert not (tmp_path / "runs").exists()
        if verb == "eval" and code == 0:
            # eval reads only mu from prototypes.json: the re-score is the intact run's.
            intact = tmp_path / "intact"
            shutil.copytree(finished_run, intact)
            assert main(["eval", "--run-dir", str(intact)]) == 0
            rescores = sorted(path.name for path in intact.glob("rescore_*.json"))
            assert rescores == sorted(path.name for path in run_dir.glob("rescore_*.json"))
            for name in rescores:
                assert (run_dir / name).read_bytes() == (intact / name).read_bytes()


    @pytest.mark.parametrize("case", [
        "run-config-dir", "sweep-config-dir", "config-not-utf8",
        "out-under-file", "force-onto-file", "eval-run-dir-file"])
    def test_path_exit_code(self, tmp_path, capsys, finished_run, case):
        # A path that is a directory, a file, or unreadable text is a usage
        # error: exit 2, naming the path, with no traceback.
        config = write_config(tmp_path, EDGE_RAW)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        named = tmp_path
        if case == "run-config-dir":
            argv = ["run", "--config", str(tmp_path)]
        elif case == "sweep-config-dir":
            argv = ["sweep", "--config", str(tmp_path), "--axis", "eta_id", "--values", "0.5",
                    "--out", str(tmp_path / "runs")]
        elif case == "config-not-utf8":
            named = tmp_path / "latin1.json"
            named.write_bytes(b'{"seed": 0, "note": "caf\xe9"}')
            argv = ["run", "--config", str(named), "--dry-run"]
        elif case == "out-under-file":
            named = a_file
            argv = ["run", "--config", config, "--out", str(a_file / "runs")]
        elif case == "force-onto-file":
            out = tmp_path / "runs"
            out.mkdir()
            named = out / finished_run.name  # the run path EDGE_RAW resolves to
            named.write_text("")
            argv = ["run", "--config", config, "--out", str(out), "--force"]
        else:
            named = a_file
            argv = ["eval", "--run-dir", str(a_file)]
        assert main(argv) == 2
        assert str(named) in capsys.readouterr().err


# The files eval reads, each with the lists of which only the first entry is damaged:
# every entry of those is read by the same code.
EVAL_READS = {"manifest.json": {("clusters",)}, "checkpoint.json": {("params_hex",)},
              "prototypes.json": set()}
# The manifest's top-level keys eval does not read; of prototypes.json it reads mu alone.
MANIFEST_UNREAD = ("clusters", "package_version", "format_version", "wall_clock_s")
REMOVE = object()
# float.fromhex reads the strings "inf", "-inf" and "nan" as non-finite floats.
LEAF_DAMAGES = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
                "1e300": 1e300, "10**400": 10**400, "negative": -1, "empty-list": [],
                "empty-object": {}, "null": None, "removed": REMOVE, "'inf'": "inf",
                "'-inf'": "-inf", "'nan'": "nan"}


def node_paths(node, first_only, path=()):
    """The key path of every value under node, containers included, in document order;
    of a list at a path in first_only, only its first entry's."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node[:1] if path in first_only else node))
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, first_only, path + (key,))


def damaged(payload, path, value):
    """payload's JSON text with the value at path replaced, or removed for REMOVE."""
    payload = json.loads(json.dumps(payload))
    owner = payload
    for key in path[:-1]:
        owner = owner[key]
    if value is REMOVE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return json.dumps(payload).encode()


def damage_cases(name, data):
    """(label, damaged bytes, whether eval must re-score them to the intact bytes)."""
    payload = json.loads(data)
    cases = [("empty", b"", False), ("truncated", data[:len(data) // 2], False),
             ("root-list", json.dumps([payload]).encode(), False), ("root-number", b"7", False)]
    for path in node_paths(payload, EVAL_READS[name]):
        unread = (path[0] in MANIFEST_UNREAD if name == "manifest.json"
                  else name == "prototypes.json" and path[0] != "mu")
        value = payload
        for key in path:
            value = value[key]
        wrong_type = 7 if isinstance(value, str) else "x"
        for label, new in {"wrong-type": wrong_type, **LEAF_DAMAGES}.items():
            cases.append((f"{'.'.join(map(str, path))}={label}", damaged(payload, path, new),
                          unread))
    return cases


# A run small enough that each of the thousand-odd damaged copies re-scores in about 1 ms.
DAMAGE_RAW = {
    "seed": 0,
    "scenario": {"input_dim": 4, "num_classes": 2, "labels_per_class": 4,
                 "unlabeled_id_per_class": 4, "unlabeled_seen_per_cluster": 4,
                 "test_id_per_class": 3, "test_seen_per_cluster": 2, "test_unseen_per_cluster": 2,
                 "seen_ood_clusters": 1},
    "net": {"backbone_widths": [4], "feature_dim": 4, "proj_hidden": 4, "embed_dim": 2},
    "train": {"epochs": 1, "iters_per_epoch": 2, "batch_size": 4},
}


class TestDamagedRunFiles:
    """Generated damage to every value of each file eval reads: eval exits 0 or 2,
    never 1; an exit 2 names the file; a damaged value eval does not read re-scores
    to the intact run's bytes. One finished run is damaged in place, case by case."""

    @pytest.mark.parametrize("name", sorted(EVAL_READS))
    def test_damage_exits_0_or_2(self, tmp_path, capsys, name):
        run_dir, _ = run_experiment(resolve_config(DAMAGE_RAW), tmp_path)
        argv = ["eval", "--run-dir", str(run_dir)]
        rescore = run_dir / f"rescore_{metrics.SCORE_RULES[0]}.json"
        target = run_dir / name
        intact = target.read_bytes()
        assert main(argv) == 0
        want = rescore.read_bytes()
        failures = []
        for label, data, unread in damage_cases(name, intact):
            target.write_bytes(data)
            rescore.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                code = main(argv)
            except Exception as err:  # the command line would print a traceback, exit 1
                code = f"1 ({type(err).__name__}: {err})"
            err = capsys.readouterr().err
            if code not in (0, 2) or "Traceback" in err:
                failures.append(f"{label}: exit {code}")
            elif code == 2 and name not in err:
                failures.append(f"{label}: exit 2 does not name {name}: {err.strip()}")
            elif unread and (code != 0 or rescore.read_bytes() != want):
                failures.append(f"{label}: an unread value changed the re-score (exit {code})")
        target.write_bytes(intact)
        assert not failures, "\n".join(failures)


# Each damage a config file's value takes: a wrong type, each non-finite float, values
# beyond a float64 or an index, negative and zero values, a container, and removal.
CONFIG_DAMAGES = {"string": "x", "nan": float("nan"), "inf": float("inf"),
                  "-inf": float("-inf"), "1e300": 1e300, "-1": -1, "-1.5": -1.5,
                  "empty-list": [], "empty-object": {}, "null": None, "true": True,
                  "10**30": 10**30, "0": 0, "removed": REMOVE}


class TestDamagedConfig:
    """Generated damage to every value of a two-step run's config file, each entry of
    a list included: run exits 0, 2 or 3, never 1, and an exit 2 names the damaged
    key, with no traceback."""

    def test_damage_exits_0_2_or_3(self, tmp_path, capsys):
        # As a file holds it: backbone_widths a list, whose entry is damaged.
        config = json.loads(json.dumps(resolve_config(DAMAGE_RAW).resolved_dict()))
        leaves = [path for path in node_paths(config, set())
                  if not isinstance(functools.reduce(operator.getitem, path, config),
                                    (dict, list))]
        assert len(leaves) == len(SETTABLE_VALUES)
        assert ("net", "backbone_widths", 0) in leaves
        config_path = tmp_path / "config.json"
        argv = ["run", "--config", str(config_path), "--out", str(tmp_path / "runs"), "--force"]
        failures, codes = [], collections.Counter()
        for leaf in leaves:
            key = next(part for part in reversed(leaf) if isinstance(part, str))
            for label, value in CONFIG_DAMAGES.items():
                config_path.write_bytes(damaged(config, leaf, value))
                capsys.readouterr()
                try:
                    code = main(argv)
                except Exception as err:  # the command line would print a traceback, exit 1
                    code = f"1 ({type(err).__name__}: {err})"
                codes[code] += 1
                err = capsys.readouterr().err
                name = f"{'.'.join(map(str, leaf))}={label}"
                if code not in (0, 2, 3) or "Traceback" in err:
                    failures.append(f"{name}: exit {code}")
                elif code == 2 and key not in err:
                    failures.append(f"{name}: exit 2 does not name {key}: {err.strip()}")
        assert not failures, "\n".join(failures)
        assert set(codes) == {0, 2, 3}  # some damage still trains, some diverges


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestArtifactsJoin:
    def test_split_and_embeddings_join_the_manifest_clusters(self, finished_run):
        # Every row's category names a cluster of manifest.json's clusters, split.csv
        # holds the per-part counts its config gives, and embeddings.csv joins
        # split.csv's test rows on id.
        manifest = json.loads((finished_run / "manifest.json").read_text())
        clusters = {f"{c['kind']}:{c['index']}" for c in manifest["clusters"]}
        split_rows = read_csv_rows(finished_run / "split.csv")
        embedding_rows = read_csv_rows(finished_run / "embeddings.csv")
        assert {r["category"] for r in split_rows + embedding_rows} <= clusters
        spec = resolve_config(manifest["config"]).scenario
        assert dict(collections.Counter(r["split"] for r in split_rows)) == {
            "labeled": spec.num_classes * spec.labels_per_class,
            "unlabeled": (spec.num_classes * spec.unlabeled_id_per_class
                          + spec.seen_ood_clusters * spec.unlabeled_seen_per_cluster),
            "test": (spec.num_classes * spec.test_id_per_class
                     + spec.seen_ood_clusters * spec.test_seen_per_cluster
                     + spec.unseen_ood_clusters * spec.test_unseen_per_cluster)}
        test_category = {r["id"]: r["category"] for r in split_rows if r["split"] == "test"}
        assert [r["id"] for r in embedding_rows] == list(test_category)
        assert [r["category"] for r in embedding_rows] == list(test_category.values())


class TestGateDetail:
    def test_gate_npz_replays_the_default_run(self, tmp_path):
        # gate.npz holds each step's gate row: the rule at the manifest's thresholds
        # replays its phi, and each row's accepted count is its runlog line's. Two runs
        # of one config write the same bytes.
        cfg = resolve_config({"seed": 0})
        run_dir, _ = run_experiment(cfg, tmp_path / "a")
        other, _ = run_experiment(cfg, tmp_path / "b")
        assert (run_dir / "gate.npz").read_bytes() == (other / "gate.npz").read_bytes()
        train_cfg = json.loads((run_dir / "manifest.json").read_text())["config"]["train"]
        lines = [json.loads(line) for line in (run_dir / "runlog.jsonl").read_text().splitlines()]
        records = [line for line in lines if "step" in line]
        assert not any("gate_detail" in record for record in records)
        with np.load(run_dir / "gate.npz") as gate:
            # No mask, which the thresholds give; the class index in one byte: the
            # default has 4 classes.
            assert {name: gate[name].dtype.str for name in gate} == {
                "cc_conf": "<f8", "od_conf": "<f8", "pred_class": "|u1"}
            assert all(gate[name].shape == (480, 32) for name in gate)
            assert gate["pred_class"].max() < cfg.net.num_classes
            phi = (gate["cc_conf"] > train_cfg["tau_id"]) & (gate["od_conf"] > train_cfg["eta_id"])
            assert ([record["gate"]["accepted"] for record in records]
                    == np.count_nonzero(phi, axis=1).tolist())


# The runs whose files replay every fact they leave out: the default and the golden
# files' fork-threshold run.
REPLAY_CONFIGS = {"default": {"seed": 0}, "fork_threshold": json.loads(
    (golden_files.GOLDEN_DIR / "artifacts.json").read_text())["runs"]["fork_threshold"]["config"]}


class TestRunFilesReplay:
    @pytest.mark.parametrize("name", list(REPLAY_CONFIGS))
    def test_dropped_facts_replay_bit_for_bit(self, tmp_path, monkeypatch, step_returns, name):
        # Each fact the run directory leaves out, rebuilt from its files alone and
        # checked bit for bit against the run that wrote them: each step's total from
        # its leaves and the manifest's weights against the total its closure returned
        # (the composites are compose's parts of it), its labeled batch from batch_size
        # against the rows it forwarded; the labeled means from a forward of
        # checkpoint.json over the regenerated labeled rows, the labeled counts from
        # labels_per_class, the unlabeled counts from the last epoch line, and mu from
        # the fusion, against the final prototypes and the means and counts of the
        # labeled rows their refresh took, by refresh's expression.
        trained, refreshed = [], []
        monkeypatch.setattr("skipalign.cli.train",
                            lambda *args: trained.append(train(*args)) or trained[-1])
        real_refresh = trainer.refresh
        monkeypatch.setattr(trainer, "refresh",
                            lambda *args: refreshed.append(args[0]) or real_refresh(*args))
        run_dir, _ = run_experiment(resolve_config(REPLAY_CONFIGS[name]), tmp_path)
        final, labeled = trained[0][1].final_prototypes, refreshed[-1]

        cfg = resolve_config(json.loads((run_dir / "manifest.json").read_text())["config"])
        lines = [json.loads(line) for line in (run_dir / "runlog.jsonl").read_text().splitlines()]
        steps = [line for line in lines if "step" in line]
        epochs = [line for line in lines if "epoch" in line]
        assert lines == steps + epochs and len(epochs) == cfg.train.epochs
        assert all(list(line) == ["step", "terms", "batch_unlabeled", "gate"] for line in steps)
        assert all(list(line["terms"]) == list(LEAVES) for line in steps)
        weights = cfg.train.weights_and_slopes[0]
        totals = [compose(line["terms"], weights)["total"] for line in steps]
        assert np.array(totals).tobytes() == np.array([t for _, t in step_returns]).tobytes()
        assert [cfg.train.batch_size + 3 * line["batch_unlabeled"] for line in steps] == [
            rows for rows, _ in step_returns]

        saved = json.loads((run_dir / "prototypes.json").read_text())
        assert list(saved) == ["mu", "mu_unlabeled"]
        split = synthdata.generate(cfg.scenario)
        embeddings = forward(load_checkpoint(run_dir / "checkpoint.json"),
                             split.labeled_x).embeddings
        classes = range(cfg.net.num_classes)
        replayed = {
            "mu_labeled": np.array([embeddings[split.labeled_y == k].mean(axis=0)
                                    for k in classes]),
            "mu_unlabeled": np.array(saved["mu_unlabeled"]),
            "n_labeled": np.full(cfg.net.num_classes, cfg.scenario.labels_per_class),
            "n_unlabeled": np.array(epochs[-1]["prototypes"]["n_unlabeled"]),
        }
        assert np.bincount(split.labeled_y).tolist() == replayed["n_labeled"].tolist()
        mu = replayed["mu_labeled"].copy()
        w_l = cfg.train.gamma * replayed["n_labeled"]
        w_u = cfg.train.r_u * replayed["n_unlabeled"]
        for k in np.flatnonzero(w_u):
            total = w_l[k] + w_u[k]
            mu[k] = (w_l[k] / total) * mu[k] + (w_u[k] / total) * replayed["mu_unlabeled"][k]
        replayed["mu"] = np.array(saved["mu"])
        assert mu.tobytes() == replayed["mu"].tobytes()
        want = {"mu_labeled": np.array([labeled.vectors[labeled.labels == k].mean(axis=0)
                                        for k in classes]),
                "mu_unlabeled": final.mu_unlabeled,
                "n_labeled": np.bincount(labeled.labels, minlength=cfg.net.num_classes),
                "n_unlabeled": final.n_unlabeled, "mu": final.mu}
        for field, value in replayed.items():
            assert value.dtype == want[field].dtype, field
            assert value.tobytes() == want[field].tobytes(), field


class TestCliGradcheckAndGolden:
    def test_gradcheck_is_no_verb(self, capsys):
        # The gradient checks are criteria 1 and 3 of the tests and the golden check is
        # golden_files: the command line has three verbs, and either name is a usage error.
        assert "{run,sweep,eval}" in build_parser().format_usage()
        for verb in ("gradcheck", "golden"):
            with pytest.raises(SystemExit) as exc:
                main([verb])
            assert exc.value.code == 2
            assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_golden_write_then_check(self, tmp_path):
        cfg = resolve_config(TINY_RAW)
        golden = tmp_path / "golden"
        lines = golden_files.write(cfg, golden)
        assert (golden / "metrics.csv").exists()
        # A first write moves every value from None: each metrics.csv row, each file.
        rows = (golden / "metrics.csv").read_text().splitlines()[1:]
        assert lines[:len(rows)] == [f"metrics.csv {row.replace(',', ': None -> ', 1)}"
                                     for row in rows]
        # Then the platform the table records, which is no file.
        table = json.loads((golden / "artifacts.json").read_text())
        assert table["platform"] == golden_files.platform_record()
        assert lines[len(rows):] == [f"{name}: None -> {table[name]}"
                                     for name in sorted(golden_files.flat(table))] + [
            f"platform: None -> {table['platform']}"]
        assert golden_files.check(cfg, golden) == []
        assert golden_files.write(cfg, golden) == []

    def test_golden_detects_drift(self, tmp_path):
        cfg = resolve_config(TINY_RAW)
        golden = tmp_path / "golden"
        golden_files.write(cfg, golden)
        metrics_path = golden / "metrics.csv"
        right = metrics_path.read_text()
        metrics_path.write_text(right.replace("accuracy,", "accuracy,0"))
        assert golden_files.check(cfg, golden) == [str(metrics_path)]
        # A fingerprint that moved, or a file the table lacks, is named.
        table_path = golden / "artifacts.json"
        table = json.loads(table_path.read_text())
        sha = table["checkpoint.json"]
        table["checkpoint.json"] = "0" * 64
        del table["split.csv"]
        table_path.write_text(json.dumps(table))
        assert golden_files.check(cfg, golden) == [
            str(metrics_path), "checkpoint.json", "split.csv"]
        # The rewrite says what moved back, old -> new.
        accuracy = next(line for line in right.splitlines() if line.startswith("accuracy,"))
        value = accuracy.split(",")[1]
        assert golden_files.write(cfg, golden) == [
            f"metrics.csv accuracy: 0{value} -> {value}",
            f"checkpoint.json: {'0' * 64} -> {sha}",
            f"split.csv: None -> {json.loads(table_path.read_text())['split.csv']}"]
        assert metrics_path.read_text() == right

    def test_golden_names_moved_files_of_more_runs(self, tmp_path):
        # A moved file of a run kept in the table's "runs" is named as <run>/<file>,
        # and the table's "runs" entry itself is no file.
        cfg = resolve_config(TINY_RAW)
        golden = tmp_path / "golden"
        golden_files.write(cfg, golden)
        table_path = golden / "artifacts.json"
        table = json.loads(table_path.read_text())
        extra = {**TINY_RAW, "train": {"epochs": 1, "iters_per_epoch": 2, "batch_size": 8}}
        table["runs"] = {"extra": {"config": extra, "files": {}}}
        table_path.write_text(json.dumps(table))
        lines = golden_files.write(cfg, golden)
        table = json.loads(table_path.read_text())
        assert table["runs"]["extra"]["config"] == extra
        assert lines == [f"extra/{name}: None -> {sha}"
                         for name, sha in sorted(table["runs"]["extra"]["files"].items())]
        table["runs"]["extra"]["files"]["checkpoint.json"] = "0" * 64
        table_path.write_text(json.dumps(table))
        assert golden_files.check(cfg, golden) == ["extra/checkpoint.json"]

    def test_artifact_fingerprints(self):
        # Every file of the default seed-0 run and of its re-score under each rule,
        # byte for byte, and the same for the table's fork-threshold run; a failure
        # names each file that moved, and the platform the table was recorded on and
        # this one.
        moved = golden_files.check(resolve_config({"seed": 0}))
        assert moved == [], f"moved: {moved}; {golden_files.platforms()}"

    def test_fork_threshold_run_forks(self):
        # The pinned run's test split is written by forked children on 2 cores
        # (embeddings.csv) and evaluated in more than one row range.
        table = json.loads((golden_files.GOLDEN_DIR / "artifacts.json").read_text())
        s = resolve_config(table["runs"]["fork_threshold"]["config"]).scenario
        test_rows = (s.num_classes * s.test_id_per_class
                     + s.seen_ood_clusters * s.test_seen_per_cluster
                     + s.unseen_ood_clusters * s.test_unseen_per_cluster)
        assert test_rows >= 2 * synthdata.RANGE_CHUNKS * synthdata.CHUNK_ROWS
        assert test_rows > metrics.FORWARD_CHUNK_ROWS

    def test_golden_missing_file(self, tmp_path, monkeypatch):
        # A missing golden file is reported before any run.
        monkeypatch.setattr(golden_files, "run_experiment", None)
        with pytest.raises(FileNotFoundError, match="metrics.csv"):
            golden_files.check(resolve_config(TINY_RAW), tmp_path)
        (tmp_path / "metrics.csv").write_text("")
        with pytest.raises(FileNotFoundError, match="artifacts.json"):
            golden_files.check(resolve_config(TINY_RAW), tmp_path)


def child_env() -> dict:
    """This process's environment, with the package under test importable."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([str(Path(skipalign.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")])}


class TestProductionPath:
    def test_run_and_eval_load_no_tape(self, tmp_path):
        # The autodiff tape is an oracle of the tests: a fresh interpreter that runs and
        # re-scores a two-step run loads every module of the package but the tape's,
        # and nothing else of the package.
        script = (
            "import json, pathlib, sys\n"
            "from skipalign.cli import main\n"
            "config, out = sys.argv[1:]\n"
            "assert main(['run', '--config', config, '--out', out]) == 0\n"
            "(run_dir,) = pathlib.Path(out).iterdir()\n"
            "assert main(['eval', '--run-dir', str(run_dir)]) == 0\n"
            "print(json.dumps(sorted(name for name in sys.modules if 'skipalign' in name)))\n")
        raw = {**TINY_RAW, "train": {"epochs": 1, "iters_per_epoch": 2, "batch_size": 8}}
        child = subprocess.run([sys.executable, "-c", script, write_config(tmp_path, raw),
                                str(tmp_path / "runs")],
                               env=child_env(), capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        loaded = json.loads(child.stdout.splitlines()[-1])
        production = sorted(f"skipalign.{name[:-3]}".removesuffix(".__init__")
                            for name in SOURCE_MODULES if name not in TAPE_MODULES)
        assert loaded == production


# Most units in the last place a metrics.csv value other than an AUC or the accuracy
# may move under another BLAS kernel; at seeds 0 to 2 the Haswell kernel moved 1 at most.
KERNEL_ULPS = 4


def ulps(a: float, b: float) -> int:
    """Units in the last place between two finite floats of one sign."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@pytest.mark.skipif(not __cpu_features__.get("AVX2"), reason="the Haswell BLAS kernel needs AVX2")
class TestPortableData:
    def test_default_run_under_another_blas_kernel(self, tmp_path):
        # The default seed-0 run in a child whose OpenBLAS uses its Haswell kernel. The
        # data, split.csv and the manifest's cluster table, are summed without BLAS and
        # keep their bytes; training and evaluation multiply through BLAS, so there
        # every AUC and the accuracy hold and the other metrics hold to KERNEL_ULPS.
        env = {**child_env(), "OPENBLAS_CORETYPE": "Haswell"}
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from skipalign.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", "--config",
             write_config(tmp_path, {"seed": 0}), "--out", str(tmp_path / "runs")],
            env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        (run_dir,) = (tmp_path / "runs").iterdir()

        split = synthdata.generate(resolve_config({"seed": 0}).scenario)
        synthdata.write_split_csv(split, tmp_path / "split.csv")
        assert (run_dir / "split.csv").read_bytes() == (tmp_path / "split.csv").read_bytes()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert json.dumps(manifest["clusters"]) == json.dumps(synthdata.cluster_manifest(split))

        def read(path):
            return dict(list(csv.reader(path.open()))[1:])

        got = read(run_dir / "metrics.csv")
        golden = read(Path(__file__).parent / "golden" / "metrics.csv")
        assert list(got) == list(golden)
        for key, want in golden.items():
            if key in ("score_rule", "accuracy", "seen_auc", "unseen_auc", "overall_auc") or (
                    key.startswith(("auroc/", "count/"))):
                assert got[key] == want, key
            else:
                assert ulps(float(got[key]), float(want)) <= KERNEL_ULPS, (key, got[key], want)


class TestRunExperimentApi:
    @pytest.mark.parametrize("outcome", ["complete", "diverged", "error"])
    def test_manifest_status(self, tmp_path, monkeypatch, outcome):
        raw = json.loads(json.dumps(TINY_RAW))
        seen_while_running = []
        if outcome == "diverged":
            raw["train"].update(lr0=1e6, epochs=3, iters_per_epoch=5)
        if outcome == "error":
            def write_embedding_dump(split, embeddings, feature_norms, path):
                manifest = json.loads((path.parent / "manifest.json").read_text())
                seen_while_running.append(manifest["status"])
                raise OSError("disk full")

            monkeypatch.setattr("skipalign.cli.write_embedding_dump", write_embedding_dump)
        failure = {"complete": None, "diverged": TrainingDiverged, "error": OSError}[outcome]
        with np.errstate(over="ignore", invalid="ignore"):
            if failure is None:
                run_experiment(resolve_config(raw), tmp_path / "runs")
            else:
                with pytest.raises(failure):
                    run_experiment(resolve_config(raw), tmp_path / "runs")
        run_dir = next((tmp_path / "runs").iterdir())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == outcome
        assert (manifest["wall_clock_s"] is None) == (outcome != "complete")
        assert seen_while_running == (["running"] if outcome == "error" else [])
        if outcome == "complete":
            # eval reads a manifest that carries the status key
            assert main(["eval", "--run-dir", str(run_dir)]) == 0

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_one_evaluation_per_run(self, tmp_path, monkeypatch, epochs):
        calls = []

        def evaluate(*args, **kwargs):
            calls.append(args[2])
            return metrics.evaluate(*args, **kwargs)

        monkeypatch.setattr("skipalign.cli.evaluate", evaluate)
        raw = json.loads(json.dumps(TINY_RAW))
        raw["train"]["epochs"] = epochs
        run_dir, report = run_experiment(resolve_config(raw), tmp_path / "runs")
        assert len(calls) == 1
        # The report written is the one evaluated at the final prototypes.
        written = json.loads((run_dir / "eval_report.json").read_text())
        assert written == json.loads(json.dumps(report.to_dict()))
        protos = json.loads((run_dir / "prototypes.json").read_text())
        np.testing.assert_array_equal(calls[0], normalize(np.array(protos["mu"]))[0])

    def test_wall_clock_is_the_run_duration(self, tmp_path):
        started = time.time()
        run_dir, _ = run_experiment(resolve_config(TINY_RAW), tmp_path / "runs")
        elapsed = time.time() - started
        wall_clock = json.loads((run_dir / "manifest.json").read_text())["wall_clock_s"]
        assert math.isfinite(wall_clock) and 0.0 <= wall_clock <= elapsed

    def test_returns_report_and_dir(self, tmp_path):
        cfg = resolve_config(TINY_RAW)
        run_dir, report = run_experiment(cfg, tmp_path / "runs")
        assert run_dir.exists()
        assert 0.0 <= report.overall_auc <= 1.0
        assert report.accuracy >= 0.0
