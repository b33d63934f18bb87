import json
import os
import shutil

import numpy as np
import pytest

from skipalign import metrics
from skipalign.cli import apply_axis, main, run_experiment, sweep
from skipalign.config import (ConfigError, config_hash, default_config, load_config,
                              resolve_config)
from skipalign.trainer import TrainingDiverged


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

# Every settable value of the resolved config, as flatten names it.
SETTABLE_VALUES = [
    "net.backbone_widths", "net.embed_dim", "net.feature_dim", "net.input_dim",
    "net.num_classes", "net.proj_hidden", "net.seed",
    "scenario.between_hull_scale", "scenario.id_mean_radius", "scenario.id_scale",
    "scenario.input_dim", "scenario.labels_per_class", "scenario.min_separation",
    "scenario.num_classes", "scenario.seed", "scenario.seen_ood_clusters",
    "scenario.seen_ood_mean_radius", "scenario.seen_ood_scale", "scenario.sigma_strong",
    "scenario.sigma_weak", "scenario.strong_dropout", "scenario.test_id_per_class",
    "scenario.test_seen_per_cluster", "scenario.test_unseen_per_cluster",
    "scenario.unlabeled_id_per_class", "scenario.unlabeled_seen_per_cluster",
    "scenario.unseen_between_hull", "scenario.unseen_ood_clusters",
    "scenario.unseen_ood_mean_radius", "scenario.unseen_ood_scale",
    "seed",
    "train.batch_size", "train.epochs", "train.eta_id", "train.gamma", "train.gate_temperature",
    "train.head.eta_neg", "train.head.lambda_cc", "train.head.lambda_em", "train.head.lambda_neg",
    "train.head.lambda_od", "train.head.lambda_sna", "train.head.lambda_socr",
    "train.head.lambda_u", "train.head.tau_pl", "train.iters_per_epoch", "train.lr0",
    "train.momentum", "train.r_u", "train.score_rule", "train.seed", "train.sna.lambda_ia",
    "train.sna.lambda_pa", "train.sna.lambda_usna", "train.sna.temperature", "train.tau_id",
    "train.weight_decay",
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

    def test_explicit_sub_seed_kept(self):
        cfg = resolve_config({"seed": 10, "net": {"seed": 99}})
        assert cfg.net.seed == 99

    def test_seed_override_rederives_sub_seeds(self):
        cfg = resolve_config({"seed": 10, "net": {"seed": 99}}, seed_override=3)
        assert cfg.seed == 3 and cfg.scenario.seed == 3
        assert cfg.net.seed == 4 and cfg.train.seed == 5

    def test_net_dimensions_follow_scenario(self):
        cfg = resolve_config({"seed": 0, "scenario": {"input_dim": 10, "num_classes": 3}})
        assert cfg.net.input_dim == 10 and cfg.net.num_classes == 3

    def test_mismatched_net_dimension_rejected(self):
        with pytest.raises(ConfigError, match="net.input_dim"):
            resolve_config({"seed": 0, "net": {"input_dim": 7}})

    def test_gamma_must_agree(self):
        # gamma lives in train alone, so there is no second copy to disagree
        with pytest.raises(ConfigError, match="scenario.gamma"):
            resolve_config({"seed": 0, "scenario": {"gamma": 3.0}})
        cfg = resolve_config({"seed": 0, "train": {"gamma": 3.0, "batch_size": 2}})
        assert cfg.train.gamma == 3.0 and cfg.train.unlabeled_batch == 6

    @pytest.mark.parametrize("field", ["train.tau_proto", "train.eta_proto", "train.eval_every",
                                       "train.log_gate_details", "scenario.gamma",
                                       "net.proj_nonlinear", "scenario.seen_placement",
                                       "scenario.max_placement_tries"])
    def test_removed_field_unknown(self, tmp_path, capsys, field):
        # Fields that only copied another one, that nothing set, or that chose a
        # path no run took: a manifest that still carries one, at its old
        # default, is refused, naming it.
        old_defaults = {"tau_proto": 0.99, "eta_proto": 0.5, "eval_every": 0,
                        "log_gate_details": True, "gamma": 2.0, "proj_nonlinear": True,
                        "seen_placement": "between", "max_placement_tries": 500}
        section, name = field.split(".")
        raw = {"seed": 0, section: {name: old_defaults[name]}}
        assert main(["run", "--config", write_config(tmp_path, raw), "--dry-run"]) == 2
        assert f"{field}: unknown field" in capsys.readouterr().err

    def test_settable_values_pinned(self):
        # A new option shows up here as a reviewed diff.
        assert sorted(flatten(default_config().resolved_dict())) == SETTABLE_VALUES

    def test_every_exported_name_resolves(self):
        # A stale export of a removed name fails the star import.
        import skipalign
        namespace: dict = {}
        exec("from skipalign import *", namespace)
        assert set(skipalign.__all__) <= set(namespace)

    def test_resolved_dict_round_trips(self):
        cfg = default_config(seed=4)
        again = resolve_config(cfg.resolved_dict())
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_environment_is_not_an_input(self, tmp_path, monkeypatch, capsys):
        # The file and --seed are a run's only inputs.
        path = write_config(tmp_path, {"seed": 0, "train": {"lr0": 0.02}})
        monkeypatch.setenv("SKIPALIGN_TRAIN__LR0", "0.025")
        assert main(["run", "--config", path, "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out)["train"]["lr0"] == 0.02

    @pytest.mark.parametrize("raw, field", [
        ({"seed": 0, "train": {"sna": {"temperature": float("nan")}}}, "train.sna.temperature"),
    ], ids=["json-nan"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, raw, field):
        path = write_config(tmp_path, raw)  # json writes a float NaN as the literal NaN
        with pytest.raises(ConfigError, match=f"{field}: must be finite"):
            load_config(path)
        assert main(["run", "--config", path, "--dry-run"]) == 2
        assert field in capsys.readouterr().err


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
        assert "train: score_rule must be one of" in capsys.readouterr().err

    def test_run_writes_all_artifacts(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        for name in ("manifest.json", "runlog.jsonl", "checkpoint.json",
                     "prototypes.json", "eval_report.json", "metrics.csv",
                     "embeddings.csv", "split.csv", "scenario_manifest.json"):
            assert (run_dir / name).exists(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
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
        assert any(d.endswith("-s0") for d in dirs) and any(d.endswith("-s7") for d in dirs)

    def test_divergent_training_exits_3(self, tmp_path, capsys):
        # 3 x 5 fails in a step's forward; 1 x 3 in the epoch-end prototype refresh.
        for epochs, iters in ((3, 5), (1, 3)):
            raw = json.loads(json.dumps(TINY_RAW))
            raw["train"].update(lr0=1e6, epochs=epochs, iters_per_epoch=iters)
            path = write_config(tmp_path, raw)
            with np.errstate(over="ignore", invalid="ignore"):
                code = main(["run", "--config", path, "--out", str(tmp_path / "runs")])
            assert code == 3
            assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("nan-activation", "non-finite activation in layer 'backbone'"),
        ("zero-embedding-row", "degenerate vector"),
        ("zero-prototypes", "degenerate vector"),
    ])
    def test_degenerate_step_exits_3(self, tmp_path, capsys, monkeypatch, fault, message):
        import skipalign.trainer as trainer_mod
        real_augment, real_init = trainer_mod.augment_views, trainer_mod.init_params

        def augment_views(x, kinds, rng, scenario):
            views = real_augment(x, kinds, rng, scenario)
            if "strong" in kinds:  # the unlabeled views
                if fault == "nan-activation":
                    views["strong"][0, 0] = np.nan
                elif fault == "zero-embedding-row":
                    views["weak"][0] = 0.0  # with zero biases its embedding is zero
            return views

        def init_params(spec):
            params = real_init(spec)
            for name in params.names():
                if name.endswith(".b") or (fault == "zero-prototypes"
                                           and name.startswith("proj")):
                    params.view(name)[:] = 0.0
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
    def test_rescore_matches_original(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        run_dir = next(out_dir.iterdir())
        assert main(["eval", "--run-dir", str(run_dir)]) == 0
        assert ((run_dir / "rescore_ova_id_at_cc_argmax.json").read_bytes()
                == (run_dir / "eval_report.json").read_bytes())

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


class TestCliSweep:
    @pytest.mark.parametrize("text, axis, values, field", [
        (json.dumps(TINY_RAW), "bogus", "1", "axis"),
        ("{not json", "eta_id", "0.5", "<file>"),
        ("[1, 2]", "eta_id", "0.5", "<root>"),
        (json.dumps(TINY_RAW), "eta_id", "0.5,high", "values"),
        (json.dumps({**TINY_RAW, "optimizer": {}}), "eta_id", "", "optimizer"),
        (json.dumps(TINY_RAW), "eta_id", "0.5,0.50", "values"),
    ], ids=["unknown-axis", "invalid-json", "non-object", "non-numeric-value",
            "invalid-base-empty-values", "repeated-value"])
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


def add_spec_key(key, value):
    """A damage that adds one key to checkpoint.json's network spec, as a checkpoint
    written before that field was removed still carries it."""
    def damage(path):
        payload = json.loads(path.read_text())
        payload["spec"][key] = value
        path.write_text(json.dumps(payload))
    return damage


def set_both(key, value):
    """A damage that sets one key in both the scenario and net sections of
    manifest.json's config: the manifest still resolves, against another network."""
    def damage(path):
        payload = json.loads(path.read_text())
        for section in ("scenario", "net"):
            payload["config"][section][key] = value
        path.write_text(json.dumps(payload))
    return damage


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run_dir, _ = run_experiment(resolve_config(EDGE_RAW), tmp_path_factory.mktemp("finished"))
    return run_dir


class TestExitCodes:
    """The exit-code contract at the edges: 0 success, 2 invalid config or
    usage (naming the field or file), 3 divergence."""

    @pytest.mark.parametrize("verb, change, code, named", [
        ("run", {"seed": 0, "scenario": {"seed": 0}, "net": {"seed": 0},
                 "train": {"seed": 0}}, 0, None),
        ("run", {"seed": -1}, 2, "seed"),
        ("run", {"scenario": {"seed": -1}}, 2, "scenario.seed"),
        ("run", {"net": {"seed": -1}}, 2, "net.seed"),
        ("run", {"train": {"seed": -1}}, 2, "train.seed"),
        ("run", {"scenario": {"unlabeled_id_per_class": 0}}, 0, None),
        ("run", {"scenario": {"unlabeled_id_per_class": 0, "unlabeled_seen_per_cluster": 0}},
         2, "scenario.unlabeled_id_per_class"),
        ("run", {"scenario": {"test_id_per_class": 0}}, 2, "scenario.test_id_per_class"),
        ("run", {"scenario": {"min_separation": 1e6}}, 2, "scenario.min_separation"),
        ("run", {"train": {"epochs": "3"}}, 2, "train.epochs"),
        ("run", {"train": {"epochs": True}}, 2, "train.epochs"),
        ("run", {"train": {"epochs": 0}}, 2, "train"),
        ("run", {"scenario": {"input_dim": 16.5}}, 2, "scenario.input_dim"),
        ("run", {"net": {"proj_nonlinear": "no"}}, 2, "net.proj_nonlinear"),
        ("run", {"net": {"backbone_widths": 32}}, 2, "net.backbone_widths"),
        ("run", {"train": {"head": {"lambda_sna": "0.1"}}}, 2, "train.head.lambda_sna"),
        ("run", {"train": {"sna": [1.0]}}, 2, "train.sna"),
        ("run", {"train": {"lr0": 1e6}}, 3, None),
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
        ("eval", ("manifest.json", set_both("input_dim", 12)), 2, "manifest.json"),
        ("eval", ("manifest.json", set_both("num_classes", 3)), 2, "manifest.json"),
        ("eval", ("checkpoint.json", add_spec_key("proj_nonlinear", True)), 2,
         "checkpoint.json"),
    ], ids=["zero-seeds", "negative-seed", "negative-scenario-seed", "negative-net-seed",
            "negative-train-seed", "seen-only-pool", "empty-pool", "no-id-test-rows",
            "unsatisfiable-separation", "string-epochs", "bool-epochs", "zero-epochs",
            "fractional-input-dim",
            "string-flag", "scalar-widths", "string-head-weight", "list-section", "diverging",
            "checkpoint-appended", "prototypes-appended", "manifest-appended",
            "prototypes-key-missing", "prototypes-missing", "prototypes-mu-column-dropped",
            "prototypes-mu-zero-rows", "prototypes-mu-string", "manifest-input-dim",
            "manifest-num-classes", "checkpoint-spec-removed-key"])
    def test_exit_code(self, tmp_path, capsys, finished_run, verb, change, code, named):
        if verb == "run":
            raw = json.loads(json.dumps(EDGE_RAW))
            for section, value in change.items():
                if isinstance(value, dict):
                    raw.setdefault(section, {}).update(value)
                else:
                    raw[section] = value
            argv = ["run", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "runs")]
        else:
            run_dir = tmp_path / "run"
            shutil.copytree(finished_run, run_dir)
            name, damage = change
            damage(run_dir / name)
            argv = ["eval", "--run-dir", str(run_dir)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == code
        if code == 2:
            assert named in capsys.readouterr().err


    @pytest.mark.parametrize("case", [
        "run-config-dir", "sweep-config-dir", "golden-config-dir", "config-not-utf8",
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
        elif case == "golden-config-dir":
            argv = ["golden", "--config", str(tmp_path),
                    "--golden-path", str(tmp_path / "metrics.csv")]
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


class TestCliGradcheckAndGolden:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_golden_write_then_check(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        golden = tmp_path / "golden" / "metrics.csv"
        assert main(["golden", "--config", path, "--golden-path", str(golden),
                     "--write"]) == 0
        assert golden.exists()
        assert main(["golden", "--config", path, "--golden-path", str(golden)]) == 0

    def test_golden_detects_drift(self, tmp_path, capsys):
        path = write_config(tmp_path, TINY_RAW)
        golden = tmp_path / "golden" / "metrics.csv"
        assert main(["golden", "--config", path, "--golden-path", str(golden),
                     "--write"]) == 0
        golden.write_text(golden.read_text().replace("accuracy", "accuracyX"))
        assert main(["golden", "--config", path, "--golden-path", str(golden)]) == 1

    def test_golden_missing_file(self, tmp_path):
        path = write_config(tmp_path, TINY_RAW)
        assert main(["golden", "--config", path,
                     "--golden-path", str(tmp_path / "nope.csv")]) == 1


class TestRunExperimentApi:
    @pytest.mark.parametrize("outcome", ["complete", "diverged", "error"])
    def test_manifest_status(self, tmp_path, monkeypatch, outcome):
        raw = json.loads(json.dumps(TINY_RAW))
        seen_while_running = []
        if outcome == "diverged":
            raw["train"].update(lr0=1e6, epochs=3, iters_per_epoch=5)
        if outcome == "error":
            def write_embedding_dump(params, split, path):
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

        monkeypatch.setattr("skipalign.trainer.evaluate", evaluate)
        monkeypatch.setattr("skipalign.cli.evaluate", evaluate)
        raw = json.loads(json.dumps(TINY_RAW))
        raw["train"]["epochs"] = epochs
        run_dir, report = run_experiment(resolve_config(raw), tmp_path / "runs")
        assert len(calls) == 1
        # The report written is the one evaluated at the final prototypes.
        written = json.loads((run_dir / "eval_report.json").read_text())
        assert written == json.loads(json.dumps(report.to_dict()))
        protos = json.loads((run_dir / "prototypes.json").read_text())
        np.testing.assert_array_equal(calls[0].mu, protos["mu"])

    def test_returns_report_and_dir(self, tmp_path):
        cfg = resolve_config(TINY_RAW)
        run_dir, report = run_experiment(cfg, tmp_path / "runs")
        assert run_dir.exists()
        assert 0.0 <= report.overall_auc <= 1.0
        assert report.accuracy >= 0.0
