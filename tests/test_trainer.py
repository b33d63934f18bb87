import dataclasses
import json

import numpy as np
import pytest

from skipalign.config import resolve_config
from skipalign.heads import HeadWeights, compose
from skipalign.net import init_params, sgd_step
from skipalign.sna import LOSS_COMBOS
from skipalign.synthdata import generate
from skipalign.trainer import (LEAVES, MOMENTUM, WEIGHT_DECAY, RunLog, TrainConfig,
                               TrainingDiverged, _batches, gate_detail_dtypes, lr_at, train)

# The keys of an iteration record, in the order they are written; its epoch and lr
# follow from its step and the config, its labeled batch is the config's batch_size,
# and its composites and total replay from its leaves and the loss weights.
RECORD_KEYS = ["step", "terms", "batch_unlabeled", "gate"]


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


def audit_gate_flow(runlog: RunLog, tau_id: float, eta_id: float) -> None:
    """Replay every logged step's pull decisions, phi, from its gate row by the gate
    rule at the run's thresholds, and check its record's accepted count against them."""
    detail = runlog.gate_detail
    phi = (detail["cc_conf"] > tau_id) & (detail["od_conf"] > eta_id)
    for record in runlog.iterations:
        if record["gate"]["accepted"] != np.count_nonzero(phi[record["step"]]):
            raise AssertionError(f"accepted count inconsistent at step {record['step']}")


def audit_loss_composition(runlog: RunLog, weights: dict, totals: list) -> None:
    """Replay every logged step's total from its nine leaves under the run's loss
    weights (`weights_and_slopes[0]` of its config), and check it bit for bit against
    the total its closure returned, totals[step]."""
    for record in runlog.iterations:
        if list(record["terms"]) != list(LEAVES):
            raise AssertionError(f"step {record['step']} does not log the nine leaves alone")
        replayed = compose(record["terms"], weights)["total"]
        if np.float64(replayed).tobytes() != np.float64(totals[record["step"]]).tobytes():
            raise AssertionError(f"loss composition off at step {record['step']}")


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


class CyclingReference:
    """Exact-size batches from reshuffled permutations, as a queue object: the
    sampler `_batches` replaced."""

    def __init__(self, pool_size, batch, rng):
        self.pool_size, self.batch, self.rng = pool_size, batch, rng
        self._queue = []

    def next(self):
        while len(self._queue) < self.batch:
            self._queue.extend(self.rng.permutation(self.pool_size).tolist())
        idx = self._queue[:self.batch]
        del self._queue[:self.batch]
        return np.asarray(idx, dtype=np.int64)


class TestBatches:
    @pytest.mark.parametrize("pool, batch", [
        (3, 8), (10, 4), (7, 7), (5, 3), (32, 16), (1, 1), (1, 5), (2, 3), (3, 64), (64, 64),
        (100, 16), (16, 100), (100, 250), (1000, 3)])
    def test_matches_cycling_reference(self, pool, batch):
        for seed in range(3):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batches, reference = _batches(pool, batch, rng), CyclingReference(pool, batch, ref_rng)
            # Enough batches to run through at least three permutations.
            for _ in range(-(-3 * pool // batch) + 1):
                got, want = next(batches), reference.next()
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrainConfig:
    def test_gamma_batch_integrality(self):
        with pytest.raises(ValueError, match="integer"):
            TrainConfig(batch_size=3, gamma=0.5)

    def test_proto_thresholds_default_to_gate(self):
        # The refresh takes exactly the rows the dual gate accepted, each epoch.
        cfg = tiny_config(tau_id=0.3, eta_id=0.0)
        _, runlog = train(generate(cfg.scenario), cfg.net, cfg.train)
        for record in runlog.epochs:
            steps = [it for it in runlog.iterations
                     if it["step"] // cfg.train.iters_per_epoch == record["epoch"]]
            accepted = sum(it["gate"]["accepted"] for it in steps)
            assert 0 < accepted < sum(it["batch_unlabeled"] for it in steps)
            assert sum(record["prototypes"]["n_unlabeled"]) == accepted

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(eta_id=1.5)


class TestTrainLoop:
    def test_batch_composition_every_iteration(self, step_returns):
        # The labeled batch is not logged: the config's batch_size and the logged
        # unlabeled batch give the rows each step forwarded.
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        expected_u = int(round(cfg.train.gamma * cfg.train.batch_size))
        for record in runlog.iterations:
            assert record["batch_unlabeled"] == expected_u
        assert [rows for rows, _ in step_returns] == [
            cfg.train.batch_size + 3 * record["batch_unlabeled"] for record in runlog.iterations]

    def test_seed_determinism_bitwise(self):
        cfg = tiny_config(seed=5)
        split = generate(cfg.scenario)
        p1, log1 = train(split, cfg.net, cfg.train)
        p2, log2 = train(split, cfg.net, cfg.train)
        assert np.array_equal(p1.flat, p2.flat)
        assert log1.iterations == log2.iterations
        assert log1.epochs == log2.epochs
        for name, array in log1.gate_detail.items():
            assert array.tobytes() == log2.gate_detail[name].tobytes(), name

    def test_blind_to_ground_truth(self):
        # The cluster codes, the cluster table and the test split are for evaluation only.
        cfg = tiny_config(seed=5)
        split = generate(cfg.scenario)
        p1, log1 = train(split, cfg.net, cfg.train)
        blind = dataclasses.replace(split, unlabeled_cluster=None, test_x=None, test_ids=None,
                                    test_cluster=None, clusters=None)
        p2, log2 = train(blind, cfg.net, cfg.train)

        def trained_bytes(params, runlog):
            return (params.flat.tobytes(), json.dumps(runlog.iterations),
                    json.dumps(runlog.epochs),
                    [array.tobytes() for array in vars(runlog.final_prototypes).values()],
                    [array.tobytes() for array in runlog.gate_detail.values()])

        assert trained_bytes(p1, log1) == trained_bytes(p2, log2)

    def test_different_train_seed_differs(self):
        cfg = tiny_config(seed=5)
        split = generate(cfg.scenario)
        tr2 = dataclasses.replace(cfg.train, seed=cfg.train.seed + 1)
        p1, _ = train(split, cfg.net, cfg.train)
        p2, _ = train(split, cfg.net, tr2)
        assert not np.array_equal(p1.flat, p2.flat)

    def test_loss_composition_invariant(self, step_returns):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        weights, totals = cfg.train.weights_and_slopes[0], [total for _, total in step_returns]
        audit_loss_composition(runlog, weights, totals)
        # every leaf enters the replayed total, and a logged total is caught
        for leaf in LEAVES:
            bad = RunLog(iterations=[json.loads(json.dumps(runlog.iterations[-1]))])
            bad.iterations[0]["terms"][leaf] += 1e-6
            with pytest.raises(AssertionError, match="loss composition off"):
                audit_loss_composition(bad, weights, totals)
        bad.iterations[0]["terms"] = {**runlog.iterations[-1]["terms"], "total": totals[-1]}
        with pytest.raises(AssertionError, match="nine leaves alone"):
            audit_loss_composition(bad, weights, totals)

    def test_gate_flow_audit(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        audit_gate_flow(runlog, cfg.train.tau_id, cfg.train.eta_id)
        # a corrupted gate row (every row pulled where the step pulled none, or none
        # where it pulled some), or a record whose count disagrees with its row, must
        # be caught
        confidence = 0.0 if runlog.iterations[0]["gate"]["accepted"] else 1.0
        corrupted = {name: array.copy() for name, array in runlog.gate_detail.items()}
        corrupted["cc_conf"][0] = corrupted["od_conf"][0] = confidence
        bad = RunLog(iterations=runlog.iterations[:1], gate_detail=corrupted)
        with pytest.raises(AssertionError, match="accepted count inconsistent at step 0"):
            audit_gate_flow(bad, cfg.train.tau_id, cfg.train.eta_id)
        record = json.loads(json.dumps(runlog.iterations[0]))
        record["gate"]["accepted"] += 1
        bad = RunLog(iterations=[record], gate_detail=runlog.gate_detail)
        with pytest.raises(AssertionError, match="accepted count inconsistent at step 0"):
            audit_gate_flow(bad, cfg.train.tau_id, cfg.train.eta_id)

    def test_prototype_epoch_records(self):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        assert len(runlog.epochs) == cfg.train.epochs
        for record in runlog.epochs:
            # The labeled counts are fixed and in prototypes.json; the report is cli's.
            assert list(record) == ["epoch", "prototypes"]
            assert list(record["prototypes"]) == ["n_unlabeled"]
            assert len(record["prototypes"]["n_unlabeled"]) == cfg.net.num_classes
            assert all(n >= 0 for n in record["prototypes"]["n_unlabeled"])
        assert "eval" not in runlog.epochs[-1]

    def test_runlog_serializable_mid_run(self, tmp_path):
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        partial = RunLog(iterations=runlog.iterations[:3], epochs=[],
                         gate_detail=runlog.gate_detail)
        partial.write_jsonl(tmp_path / "partial.jsonl")
        lines = (tmp_path / "partial.jsonl").read_text().splitlines()
        # Each record as it is: a step line is told by its "step" key, and needs no tag.
        assert [json.loads(line) for line in lines] == json.loads(
            json.dumps(runlog.iterations[:3]))
        # The gate detail's rows of the logged steps only.
        partial.write_gate_detail(tmp_path / "partial.npz")
        with np.load(tmp_path / "partial.npz") as saved:
            assert list(saved) == list(runlog.gate_detail)
            for name, array in runlog.gate_detail.items():
                assert saved[name].tobytes() == array[:3].tobytes(), name

    def test_runlog_leaves_config_constants_to_the_manifest(self):
        # The loss weights and the gate thresholds are in the run's config;
        # an iteration record holds only what changes from step to step.
        cfg = tiny_config()
        _, runlog = train(generate(cfg.scenario), cfg.net, cfg.train)
        # A step's epoch and lr follow from its step and the config, its labeled batch
        # is batch_size, and its composites and total replay from the nine leaves.
        for record in runlog.iterations:
            assert list(record) == RECORD_KEYS
            assert list(record["terms"]) == list(LEAVES)
        # The gate detail is one array per `dual_gate` array but the mask, which the
        # thresholds give, a row per step: the class index in one byte for the tiny
        # run's 4 classes.
        steps = cfg.train.epochs * cfg.train.iters_per_epoch
        assert {name: array.dtype.str for name, array in runlog.gate_detail.items()} == {
            "cc_conf": "<f8", "od_conf": "<f8", "pred_class": "|u1"}
        for array in runlog.gate_detail.values():
            assert array.shape == (steps, cfg.train.unlabeled_batch)

    @pytest.mark.parametrize("num_classes, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32)])
    def test_gate_detail_stores_every_class_index(self, num_classes, dtype):
        stored = gate_detail_dtypes(num_classes)["pred_class"]
        assert stored == dtype
        assert np.array([num_classes - 1]).astype(stored)[0] == num_classes - 1

    def test_total_matches_weighted_recomposition_from_report(self, step_returns):
        # The last record, the report a diverged run prints, replays the total its
        # step's closure returned, bit for bit.
        cfg = tiny_config()
        split = generate(cfg.scenario)
        _, runlog = train(split, cfg.net, cfg.train)
        record = runlog.iterations[-1]
        recomposed = compose(record["terms"], cfg.train.weights_and_slopes[0])["total"]
        assert np.float64(recomposed).tobytes() == np.float64(step_returns[-1][1]).tobytes()

    def test_per_step_work_is_done_once(self, monkeypatch):
        # The per-row quantities once per step, each loss kernel once per step unless
        # every weight it serves is zero (prototype alignment is usna with the gate
        # open), the unit prototypes once per epoch, the parameter layout per spec.
        import skipalign.net as net_mod
        import skipalign.trainer as trainer_mod
        from skipalign.prototypes import PrototypeSet

        kernels = {"classifier": (), "ova": (), "em": ("lambda_em",), "socr": ("lambda_socr",),
                   "neg": ("lambda_neg",), "usna": ("lambda_usna", "lambda_pa"),
                   "ia": ("lambda_ia",)}
        calls = dict.fromkeys(("step_rows", "unit_directions", "layout", *kernels), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("step_rows", *kernels):
            monkeypatch.setattr(trainer_mod, name, counted(name, getattr(trainer_mod, name)))
        monkeypatch.setattr(PrototypeSet, "unit_directions",
                            counted("unit_directions", PrototypeSet.unit_directions))
        monkeypatch.setattr(net_mod, "layout", counted("layout", net_mod.layout))
        for zero in ((), ("lambda_em", "lambda_socr", "lambda_neg"), ("lambda_usna",),
                     ("lambda_usna", "lambda_pa", "lambda_ia")):
            head = {name: 0.0 for name in zero if name in vars(HeadWeights())}
            sna = {name: 0.0 for name in zero if name not in head}
            layout_calls = []
            for iters in (2, 5):
                calls.update(dict.fromkeys(calls, 0))
                cfg = tiny_config(epochs=2, iters_per_epoch=iters, head=head, sna=sna)
                train(generate(cfg.scenario), cfg.net, cfg.train)
                assert calls["step_rows"] == 2 * iters
                for name, weights in kernels.items():
                    skipped = bool(weights) and set(weights) <= set(zero)
                    assert calls[name] == (0 if skipped else 2 * iters), (zero, name)
                assert calls["unit_directions"] == 2
                layout_calls.append(calls["layout"])
            assert layout_calls[0] == layout_calls[1]

    def test_refreshed_embeddings_are_checked_for_finite_values_once(self, monkeypatch):
        # net.forward checks the labeled embeddings each refresh reads; nothing after
        # it checks them again.
        import skipalign.trainer as trainer_mod

        cfg = tiny_config(epochs=2, iters_per_epoch=2)
        split = generate(cfg.scenario)
        outs, checked = [], []
        real_forward, real_isfinite = trainer_mod.forward, np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checked.append(a) or real_isfinite(a))
        monkeypatch.setattr(trainer_mod, "forward",
                            lambda p, x: outs.append(real_forward(p, x)) or outs[-1])
        train(split, cfg.net, cfg.train)
        assert len(outs) == 1 + 2  # the first prototypes, then one refresh per epoch
        assert [sum(a is out.embeddings for a in checked) for out in outs] == [1] * len(outs)


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
        weights = cfg.train.weights_and_slopes[0]
        totals = np.array([compose(r["terms"], weights)["total"] for r in runlog.iterations])
        assert totals.size == 200
        window = 25
        smoothed = np.convolve(totals, np.ones(window) / window, mode="valid")
        assert smoothed[-1] < 0.5 * smoothed[0]
        assert smoothed[-1] < 0.2

    def test_sna_only_weights_leave_heads_untrained(self):
        # With every head weight zero the total is identically zero and
        # parameters only move through weight decay: the steps of a zero gradient.
        cfg = tiny_config()
        head = HeadWeights(lambda_u=0, lambda_em=0, lambda_socr=0, lambda_neg=0,
                           lambda_cc=0, lambda_od=0, lambda_sna=0)
        tr = dataclasses.replace(cfg.train, head=head)
        split = generate(cfg.scenario)
        params, runlog = train(split, cfg.net, tr)
        weights = tr.weights_and_slopes[0]
        assert all(compose(r["terms"], weights)["total"] == 0.0 for r in runlog.iterations)
        replay = init_params(cfg.net)
        velocity = np.zeros_like(replay.flat)
        steps = tr.epochs * tr.iters_per_epoch
        for record in runlog.iterations:
            sgd_step(replay, np.zeros_like(replay.flat), lr=lr_at(record["step"], steps, tr.lr0),
                     momentum=MOMENTUM, weight_decay=WEIGHT_DECAY, velocity=velocity)
        assert np.array_equal(params.flat, replay.flat)

    def test_ia_pa_logs_no_usna(self):
        # usna's weight is zero in the ia_pa combo: the term is skipped, so every step
        # logs it as 0.0, while ia and pa are computed.
        cfg = tiny_config(epochs=1, iters_per_epoch=2, sna=LOSS_COMBOS["ia_pa"])
        _, runlog = train(generate(cfg.scenario), cfg.net, cfg.train)
        terms = [record["terms"] for record in runlog.iterations]
        assert len(terms) == 2
        assert all(t["usna"] == 0.0 and t["ia"] > 0.0 and t["pa"] > 0.0 for t in terms)

    @pytest.mark.parametrize("combo, rows", [
        ("none", None), ("ia_pa", 16), ("usna", 32), ("all", 48)])
    def test_alignment_pass_reads_only_enabled_rows(self, monkeypatch, combo, rows):
        # At the default batch, 16 labeled and 32 weak unlabeled rows, each step's
        # alignment pass normalizes, and usna reads, the labeled rows ia and pa read
        # and the unlabeled rows usna reads; with every alignment weight zero, neither.
        import skipalign.trainer as trainer_mod

        seen = {"normalize": [], "usna": []}

        def recorded(name):
            fn = getattr(trainer_mod, name)
            return lambda a, *args: seen[name].append(len(a)) or fn(a, *args)

        for name in seen:
            monkeypatch.setattr(trainer_mod, name, recorded(name))
        cfg = resolve_config({"seed": 0, "train": {
            "epochs": 1, "iters_per_epoch": 2, "sna": LOSS_COMBOS[combo]}})
        train(generate(cfg.scenario), cfg.net, cfg.train)
        want = [] if rows is None else [rows] * 2
        assert seen == {"normalize": want, "usna": want}


class TestDivergenceHandling:
    def test_huge_learning_rate_aborts_with_report(self):
        # 3 x 10 fails in a step's forward; 1 x 3 in the epoch-end prototype refresh.
        for epochs, iters in ((3, 10), (1, 3)):
            cfg = tiny_config(lr0=1e6, epochs=epochs, iters_per_epoch=iters)
            split = generate(cfg.scenario)
            with np.errstate(over="ignore", invalid="ignore"):  # divergence is the point
                with pytest.raises(TrainingDiverged) as excinfo:
                    train(split, cfg.net, cfg.train)
            # The error carries the run's log: the steps logged before the failure.
            iterations = excinfo.value.runlog.iterations
            assert iterations
            assert "terms" in iterations[-1]

    @pytest.mark.parametrize("k", [0, 1, 5, 6, 7, 11])
    def test_report_is_the_last_complete_record(self, monkeypatch, k):
        # A NaN in the strong view of augment_views call k (step k) fails that step's
        # forward before its closure fills the record: the run log the error carries
        # ends at step k - 1, whose line is the report.
        import skipalign.trainer as trainer_mod

        cfg = tiny_config()  # 2 epochs of 6 steps
        split = generate(cfg.scenario)
        clean = train(split, cfg.net, cfg.train)[1].iterations
        assert [list(record) for record in clean] == [RECORD_KEYS] * len(clean)
        real_augment, calls = trainer_mod.augment_views, []

        def augment_views(labeled, unlabeled, rng, scenario):
            views = real_augment(labeled, unlabeled, rng, scenario)
            if len(calls) == k:
                views[len(labeled) + 2 * len(unlabeled), 0] = np.nan
            calls.append(len(calls))
            return views

        monkeypatch.setattr(trainer_mod, "augment_views", augment_views)
        with pytest.raises(TrainingDiverged, match="non-finite activation") as excinfo:
            train(split, cfg.net, cfg.train)
        assert len(calls) == k + 1
        iterations = excinfo.value.runlog.iterations
        assert iterations == clean[:k]
        if k == 0:
            return
        report = iterations[-1]
        assert report["step"] == k - 1
        assert list(report) == RECORD_KEYS
        assert report == clean[k - 1]

    def test_non_finite_step_aborts(self):
        # A NaN learning rate passes the loss checks and fails in the SGD step.
        cfg = tiny_config()
        split = generate(cfg.scenario)
        tr = dataclasses.replace(cfg.train, lr0=float("nan"))
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(split, cfg.net, tr)
