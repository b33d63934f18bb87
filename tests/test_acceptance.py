"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS] line on success (visible with pytest -s / -rA).
The multi-run criteria train on the default scenario across three seeds;
the geometry, determinism, and sanity criteria share one default seed-0 run.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from skipalign.config import default_config, resolve_config
from skipalign.metrics import auroc, evaluate, write_eval_csv
from skipalign.oracles import (ce_feature_gradient_check, full_model_gradient_check,
                               usna_gradient_check)
from skipalign.prototypes import PrototypeSet, refresh
from skipalign.data import EmbeddingBatch
from skipalign.sna import LOSS_COMBOS, usna
from skipalign.synthdata import generate
from skipalign.trainer import train

GOLDEN_DIR = Path(__file__).parent / "golden"


def train_and_eval(seed: int, sna_combo: dict | None = None, eta_id: float | None = None):
    """The report of the default scenario at one seed: train evaluates its last epoch."""
    raw: dict = {"seed": seed, "train": {}}
    if sna_combo is not None:
        raw["train"]["sna"] = sna_combo
    if eta_id is not None:
        raw["train"]["eta_id"] = eta_id
    cfg = resolve_config(raw)
    split = generate(cfg.scenario)
    _, runlog = train(split, cfg.net, cfg.train)
    return runlog.final_report


@pytest.fixture(scope="module")
def default_run():
    cfg = default_config(seed=0)
    split = generate(cfg.scenario)
    params, runlog = train(split, cfg.net, cfg.train)
    # the last epoch's report is the one a fresh evaluation of the result gives
    assert evaluate(params, split, runlog.final_prototypes,
                    score_rule=cfg.train.score_rule) == runlog.final_report
    return runlog.final_report


def test_criterion_01_gradient_oracle_suite():
    started = time.monotonic()
    rel_usna = usna_gradient_check(n_configs=100, seed=0)
    assert rel_usna <= 1e-6
    rel_fd, rel_tape, n_params = full_model_gradient_check(seed=0)
    assert n_params <= 500
    assert rel_fd <= 1e-5
    assert rel_tape <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"[PASS] criterion 1: usna grad rel {rel_usna:.2e} <= 1e-6 (100 batches); "
          f"training gradient rel {rel_fd:.2e} <= 1e-5 vs central differences and "
          f"{rel_tape:.2e} <= 1e-12 vs the tape ({n_params} params); {elapsed:.1f}s < 30s")


def test_criterion_02_angular_purity_and_scale_invariance():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst_radial = 0.0
    worst_scale = 0.0
    for case in range(1000):
        dim = int(rng.integers(2, 13))
        k = int(rng.integers(2, 7))
        unit_protos = PrototypeSet.from_means(rng.standard_normal((k, dim))).unit_directions()
        z = rng.standard_normal(dim) * rng.uniform(0.2, 4.0)
        k_hat = int(rng.integers(0, k))
        t = rng.uniform(0.1, 2.0)
        phi = case % 2

        def loss(v):
            return usna(v[None, :], unit_protos, [phi], [k_hat], t)

        base, g = loss(z)
        g = g[0]
        zh = z / np.linalg.norm(z)
        gnorm = np.linalg.norm(g)
        if gnorm > 0:
            worst_radial = max(worst_radial, abs(np.dot(zh, g)) / gnorm)
        for c in (1e-3, 1.0, 1e3):
            worst_scale = max(worst_scale, abs(loss(c * z)[0] - base))
    assert worst_radial <= 1e-12
    assert worst_scale <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"[PASS] criterion 2: radial leakage {worst_radial:.2e} <= 1e-12, "
          f"scale drift {worst_scale:.2e} <= 1e-10 (1000 cases, both gates); {elapsed:.1f}s < 5s")


def test_criterion_03_ce_feature_gradient_identity():
    # The model's exact feature gradient must equal the closed form to 1e-10;
    # central differences corroborate at their own accuracy.
    tape_dev, fd_rel = ce_feature_gradient_check(n_configs=50, seed=2)
    assert tape_dev <= 1e-10
    assert fd_rel <= 1e-6
    print(f"[PASS] criterion 3: closed-form CE feature gradient matches the exact "
          f"gradient to {tape_dev:.2e} <= 1e-10 and finite differences to rel {fd_rel:.2e}")


def test_criterion_04_prototype_algebra():
    labeled = EmbeddingBatch(np.tile([[1.0, 0.0]], (4, 1)), labels=np.zeros(4, dtype=int))
    unlabeled = EmbeddingBatch(np.tile([[0.0, 1.0]], (8, 1)),
                               labels=np.zeros(8, dtype=np.int64))
    protos = refresh(labeled, unlabeled, gamma=2.0, r_u=0.5)
    np.testing.assert_array_equal(protos.mu[0], [2 / 3, 1 / 3])

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((12, 5))
    labels = np.repeat([0, 1, 2], 4)
    lab = EmbeddingBatch(vecs, labels=labels)
    unl = EmbeddingBatch(rng.standard_normal((9, 5)), labels=rng.integers(0, 3, 9))
    zero_r = refresh(lab, unl, gamma=2.0, r_u=0.0)
    assert np.array_equal(zero_r.mu, zero_r.mu_labeled)
    no_unl = refresh(lab, None, gamma=2.0, r_u=0.5)
    assert np.array_equal(no_unl.mu, no_unl.mu_labeled)

    fractions = []
    for r_u in np.linspace(0.0, 1.0, 21):
        p = refresh(lab, unl, gamma=2.0, r_u=float(r_u))
        d2 = p.mu_unlabeled[0] - p.mu_labeled[0]
        fractions.append(np.dot(p.mu[0] - p.mu_labeled[0], d2) / np.dot(d2, d2))
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    print("[PASS] criterion 4: fusion weights exactly (2/3, 1/3); r_u=0 and empty "
          "unlabeled reduce to labeled means bitwise; influence strictly monotone in r_u")


def test_criterion_05_auroc_correctness():
    rng = np.random.default_rng(4)

    def brute(a, b):
        total = 0.0
        for x in a:
            for y in b:
                total += 1.0 if x > y else (0.5 if x == y else 0.0)
        return total / (len(a) * len(b))

    checked = 0
    for trial in range(200):
        hi = 500 if trial < 5 else 40
        a = np.round(rng.uniform(0, 1, int(rng.integers(1, hi + 1))), 2)
        b = np.round(rng.uniform(0, 1, int(rng.integers(1, hi + 1))), 2)
        assert auroc(a, b) == brute(a.tolist(), b.tolist())
        checked += 1
    assert checked == 200

    for _ in range(50):
        a = rng.standard_normal(25)
        b = rng.standard_normal(35)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)
        base = auroc(a, b)
        for transform in (lambda v: 2 * v + 5, np.tanh, lambda v: v ** 3):
            assert auroc(transform(a), transform(b)) == pytest.approx(base, abs=1e-12)
    print("[PASS] criterion 5: pair counting equals brute force exactly on 200 sets "
          "(n up to 500); complement and monotone-transform invariances hold")


def test_criterion_06_loss_combination_ablation():
    started = time.monotonic()
    seeds = (0, 1, 2)
    overall = {}
    unseen = {}
    for name, combo in LOSS_COMBOS.items():
        reports = [train_and_eval(seed, sna_combo=combo) for seed in seeds]
        overall[name] = float(np.mean([r.overall_auc for r in reports]))
        unseen[name] = float(np.mean([r.unseen_auc for r in reports]))
    margin = 0.005
    assert overall["all"] >= overall["usna"] - margin
    assert overall["all"] >= overall["ia_pa"] - margin
    assert overall["ia_pa"] >= overall["none"] - margin
    assert overall["all"] == max(overall.values())
    assert unseen["all"] == max(unseen.values())
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print("[PASS] criterion 6: overall AUC "
          + " ".join(f"{k}={v:.4f}" for k, v in overall.items())
          + f"; full combo best on unseen and overall; {elapsed:.0f}s < 300s")


def test_criterion_07_geometry_claims(default_run):
    report = default_run
    norms = report.norm_by_category
    cosines = report.cosine_by_category
    assert norms["id"] > norms["seen_ood"]
    assert norms["id"] > norms["unseen_ood"]
    assert cosines["id"] - cosines["seen_ood"] >= 0.1
    assert cosines["id"] - cosines["unseen_ood"] >= 0.1
    print(f"[PASS] criterion 7: feature norms id {norms['id']:.2f} > seen "
          f"{norms['seen_ood']:.2f}, unseen {norms['unseen_ood']:.2f}; prototype-cosine "
          f"margins {cosines['id'] - cosines['seen_ood']:.3f} and "
          f"{cosines['id'] - cosines['unseen_ood']:.3f} >= 0.1")


def test_criterion_08_detector_threshold_sweep():
    started = time.monotonic()
    seeds = (0, 1, 2)
    values = (0.0, 0.3, 0.5, 0.7, 0.9)
    mean_overall = {}
    for eta in values:
        reports = [train_and_eval(seed, eta_id=eta) for seed in seeds]
        mean_overall[eta] = float(np.mean([r.overall_auc for r in reports]))
    margin = 0.005
    baseline = mean_overall[0.0]
    for eta in values[1:]:
        assert mean_overall[eta] >= baseline - margin, (eta, mean_overall)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print("[PASS] criterion 8: overall AUC by eta "
          + " ".join(f"{k}={v:.4f}" for k, v in mean_overall.items())
          + f"; every nonzero threshold within margin of the zero run; {elapsed:.0f}s")


def test_criterion_09_determinism_regression(default_run, tmp_path):
    golden = GOLDEN_DIR / "metrics.csv"
    assert golden.exists(), "golden file missing; regenerate via `skipalign golden --write`"
    fresh_path = tmp_path / "metrics.csv"
    write_eval_csv(default_run, fresh_path)
    assert fresh_path.read_bytes() == golden.read_bytes()
    print("[PASS] criterion 9: default-config seed-0 metrics reproduce the golden "
          "file byte for byte")


def test_criterion_10_full_method_sanity(default_run):
    report = default_run
    assert report.accuracy >= 0.9
    assert report.unseen_auc >= 0.85
    print(f"[PASS] criterion 10: closed-set accuracy {report.accuracy:.3f} >= 0.9; "
          f"unseen-OOD AUROC {report.unseen_auc:.3f} >= 0.85")
