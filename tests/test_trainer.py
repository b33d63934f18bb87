import dataclasses
import json

import numpy as np
import pytest

from skipalign.config import resolve_config
from skipalign.heads import HeadWeights, compose
from skipalign.net import init_params
from skipalign.synthdata import generate
from skipalign.trainer import (RunLog, TrainConfig, TrainingDiverged, audit_gate_flow,
                               audit_loss_composition, lr_at, train)


def tiny_config(seed=0, **train_overrides):
    raw = {
        "seed": seed,
        "scenario": {
            "labels_per_class": 6, "unlabeled_id_per_class": 12,
            "unlabeled_seen_per_cluster": 8, "test_id_per_class": 8,
            "test_seen_per_cluster": 6, "test_unseen_per_cluster": 6,
        },
        "train": {"epochs": 2, "iters_per_epoch": 6, "batch_size": 8, **train_overrides},
    }
    return resolve_config(raw)


class TestLrSchedule:
    def test_starts_at_lr0(self):
        assert lr_at(0, 100, 0.03) == pytest.approx(0.03)

    def test_ends_at_zero(self):
        assert lr_at(100, 100, 0.03) == pytest.approx(0.0, abs=1e-18)

    def test_cosine_midpoint(self):
        assert lr_at(50, 100, 0.03) == pytest.approx(0.015, abs=1e-15)

    def test_monotone_decay(self):
        values = [lr_at(s, 200, 0.01) for s in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestTrainConfig:
    def test_gamma_batch_integrality(self):
        with pytest.raises(ValueError, match="integer"):
            TrainConfig(batch_size=3, gamma=0.5)

    def test_proto_thresholds_default_to_gate(self):
        # The refresh takes exactly the rows the dual gate accepted, each epoch.
        cfg = tiny_config(tau_id=0.3, eta_id=0.0)
        _, runlog = train(generate(cfg.scenario), cfg.net, cfg.train)
        for record in runlog.epochs:
            steps = [it for it in runlog.iterations if it["epoch"] == record["epoch"]]
            accepted = sum(it["gate"]["accepted"] for it in steps)
            assert 0 < accepted < sum(it["batch_unlabeled"] for it in steps)
            assert sum(record["prototypes"]["n_unlabeled"]) == accepted

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(eta_id=1.5)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_state(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        tr = dataclasses.replace(cfg.train, epochs=0)
        params, runlog = train(split, cfg.net, tr)
        assert np.array_equal(params.flat, init_params(cfg.net).flat)
        assert params.step == 0
        assert runlog.iterations == [] and runlog.epochs == []
        assert runlog.final_prototypes is not None

    def test_batch_composition_every_iteration(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        expected_u = int(round(cfg.train.gamma * cfg.train.batch_size))
        for record in runlog.iterations:
            assert record["batch_labeled"] == cfg.train.batch_size
            assert record["batch_unlabeled"] == expected_u

    def test_seed_determinism_bitwise(self):
        cfg = tiny_config(seed=5)
        split = generate(cfg.scenario)
        p1, log1 = train(split, cfg.net, cfg.train)
        p2, log2 = train(split, cfg.net, cfg.train)
        assert np.array_equal(p1.flat, p2.flat)
        assert log1.iterations == log2.iterations
        assert log1.epochs == log2.epochs

    def test_different_train_seed_differs(self):
        cfg = tiny_config(seed=5)
        split = generate(cfg.scenario)
        tr2 = dataclasses.replace(cfg.train, seed=cfg.train.seed + 1)
        p1, _ = train(split, cfg.net, cfg.train)
        p2, _ = train(split, cfg.net, tr2)
        assert not np.array_equal(p1.flat, p2.flat)

    def test_loss_composition_invariant(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        worst = audit_loss_composition(runlog, tol=1e-12)
        assert worst <= 1e-12
        # every composite is audited, not just the total
        for composite in ("sna", "cc", "od"):
            bad = RunLog(iterations=[json.loads(json.dumps(runlog.iterations[-1]))])
            bad.iterations[0]["terms"][composite] += 1e-6
            with pytest.raises(AssertionError):
                audit_loss_composition(bad)

    def test_gate_flow_audit(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        audit_gate_flow(runlog)
        # a corrupted mask must be caught
        bad = RunLog(iterations=[json.loads(json.dumps(runlog.iterations[0]))])
        bad.iterations[0]["gate_detail"]["phi"] = [
            1 - p for p in bad.iterations[0]["gate_detail"]["phi"]]
        if any(bad.iterations[0]["gate_detail"]["phi"]):
            with pytest.raises(AssertionError):
                audit_gate_flow(bad)

    def test_prototype_epoch_records(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        assert len(runlog.epochs) == cfg.train.epochs
        for record in runlog.epochs:
            assert len(record["prototypes"]["n_labeled"]) == cfg.net.num_classes
            assert all(n >= 1 for n in record["prototypes"]["n_labeled"])
        assert "eval" in runlog.epochs[-1]

    def test_runlog_serializable_mid_run(self, tmp_path):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        partial = RunLog(iterations=runlog.iterations[:3], epochs=[])
        partial.write_jsonl(tmp_path / "partial.jsonl")
        lines = (tmp_path / "partial.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["type"] == "iteration"

    def test_total_matches_weighted_recomposition_from_report(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        record = runlog.iterations[-1]
        recomposed = compose(record["terms"], record["weights"])["total"]
        assert record["total"] == pytest.approx(recomposed, abs=1e-12)


class TestReducedConfigurations:
    def test_fixmatch_reduction_loss_decreases(self):
        # Classifier-only training on a separable two-class closed set: the
        # smoothed total loss must fall over 200 iterations.
        raw = {
            "seed": 1,
            "scenario": {
                "num_classes": 2, "seen_ood_clusters": 0, "unseen_ood_clusters": 0,
                "unseen_between_hull": 0, "unlabeled_seen_per_cluster": 0,
                "test_seen_per_cluster": 0, "test_unseen_per_cluster": 0,
                "labels_per_class": 10, "unlabeled_id_per_class": 40,
                "test_id_per_class": 10,
            },
            "net": {},
            "train": {
                "epochs": 5, "iters_per_epoch": 40, "batch_size": 8,
                "head": {"lambda_em": 0.0, "lambda_socr": 0.0, "lambda_neg": 0.0,
                         "lambda_od": 0.0, "lambda_sna": 0.0},
                "sna": {"lambda_usna": 0.0, "lambda_ia": 0.0, "lambda_pa": 0.0},
            },
        }
        cfg = resolve_config(raw)
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        totals = np.array([r["total"] for r in runlog.iterations])
        assert totals.size == 200
        window = 25
        smoothed = np.convolve(totals, np.ones(window) / window, mode="valid")
        assert smoothed[-1] < 0.5 * smoothed[0]
        assert smoothed[-1] < 0.2

    def test_sna_only_weights_leave_heads_untrained(self):
        # With every head weight zero the total is identically zero and
        # parameters only move through weight decay.
        cfg = tiny_config()
        head = HeadWeights(lambda_u=0, lambda_em=0, lambda_socr=0, lambda_neg=0,
                           lambda_cc=0, lambda_od=0, lambda_sna=0)
        tr = dataclasses.replace(cfg.train, head=head, weight_decay=0.0)
        split = generate(cfg.scenario)
        params, runlog = train(split, cfg.net, tr)
        assert all(r["total"] == 0.0 for r in runlog.iterations)
        assert np.array_equal(params.flat, init_params(cfg.net).flat)


class TestDivergenceHandling:
    def test_huge_learning_rate_aborts_with_report(self):
        # 3 x 10 fails in a step's forward; 1 x 3 in the epoch-end prototype refresh.
        for epochs, iters in ((3, 10), (1, 3)):
            cfg = tiny_config(lr0=1e6, epochs=epochs, iters_per_epoch=iters)
            split = generate(cfg.scenario)
            with np.errstate(over="ignore", invalid="ignore"):  # divergence is the point
                with pytest.raises(TrainingDiverged) as excinfo:
                    train(split, cfg.net, cfg.train)
            assert excinfo.value.last_report is not None
            assert "terms" in excinfo.value.last_report

    def test_non_finite_step_aborts(self):
        # A NaN learning rate passes the loss checks and fails in the SGD step.
        cfg = tiny_config()
        split = generate(cfg.scenario)
        tr = dataclasses.replace(cfg.train, lr0=float("nan"))
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(split, cfg.net, tr)
