"""Checks of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py

Every wrapped function must emit spans on the workload meant to exercise
it, each wrapper must sit at the binding its caller looks up, and span
arithmetic must hold: children inside parents, self times non-negative.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import derive  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Layers a workload does not call: only the sweep workload sweeps.
NOT_EXERCISED = {"train_default": {"cli.sweep"}, "eval_large": {"cli.sweep"},
                 "sweep_loss_combo": set()}

# Bindings callers look up today: names imported into trainer and cli, and
# attributes looked up on the net and tensor_losses modules.
CALLER_BINDINGS = {
    "net.sgd_step": "skipalign.trainer.sgd_step",
    "synthdata.augment_views": "skipalign.trainer.augment_views",
    "sna.dual_gate": "skipalign.trainer.dual_gate",
    "prototypes.refresh": "skipalign.trainer.refresh",
    "metrics.evaluate": "skipalign.trainer.evaluate",
    "net.backward": "skipalign.net.backward",
    "net.forward_tensors": "skipalign.net.forward_tensors",
    "trainer.train": "skipalign.cli.train",
    "synthdata.generate": "skipalign.cli.generate",
    **{f"tensor_losses.{t}_graph": f"skipalign.tensor_losses.{t}_graph"
       for t in spans.LOSS_TERMS},
}


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    """Each workload's operation, shrunk, run once under the full tracer."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        tracer = spans.Tracer()
        with tracer:
            run_dirs = workload.op(workloads.shrink(workload.raw(1)),
                                   tmp_path_factory.mktemp(name))
            failures = workloads.verify(workload, 1, run_dirs, Path("unused"))
            bindings = {k: list(v) for k, v in tracer.bindings.items()}
        out[name] = (tracer.spans, bindings, failures)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_layer_emits_spans(traced_ops, workload):
    recorded, _, failures = traced_ops[workload]
    assert failures == []
    seen = {span[0] for span in recorded}
    missing = set(spans.LAYERS) - NOT_EXERCISED[workload] - seen
    assert not missing, f"no spans from {sorted(missing)}"
    assert spans.COUNT_NODES in seen


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_span_arithmetic(traced_ops, workload):
    recorded = traced_ops[workload][0]
    assert spans.nesting_errors(recorded) == []
    assert all(value >= 0 for value in spans.self_times(recorded))


def test_wrappers_sit_at_caller_bindings(traced_ops):
    bindings = traced_ops["train_default"][1]
    for layer, binding in CALLER_BINDINGS.items():
        assert binding in bindings[layer], f"{layer} is not wrapped at {binding}"


def test_no_binding_left_unwrapped_and_all_restored():
    tracer = spans.Tracer()
    originals = {}
    for name, (module_name, attr) in spans.LAYERS.items():
        if "." not in attr:
            originals[name] = getattr(sys.modules[module_name], attr)
    with tracer:
        for name, original in originals.items():
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "skipalign":
                    stale = [k for k, v in vars(module).items() if v is original]
                    assert not stale, f"{mod_name}.{stale} still holds unwrapped {name}"
    for name, original in originals.items():
        module_name, attr = spans.LAYERS[name]
        assert getattr(sys.modules[module_name], attr) is original


def test_usna_calls_drop_to_zero_on_skipped_combos(traced_ops):
    recorded = traced_ops["sweep_loss_combo"][0]
    metrics, _ = derive.per_layer(recorded, [], [])
    # Two steps per training; usna runs only in the 'usna' and 'all' combos.
    assert metrics["tensor_losses.usna_calls"]["value"] == 4
    assert metrics["tensor_losses.pa_calls"]["value"] == 4
    assert metrics["tensor_losses.ce_calls"]["value"] == 8


def test_node_counting_is_left_out_of_backward_and_step_times():
    recorded = [
        ["trainer.train", 0, 100, -1, 0, {"steps": 1, "accepted": 0, "drawn": 1}],
        ["trainer.lr_at", 10, 12, 0, 0, None],
        ["net.backward", 20, 60, 0, 0, None],
        [spans.COUNT_NODES, 22, 32, 2, 0, 5],
        ["autodiff.backward", 33, 58, 2, 0, None],
        ["net.sgd_step", 61, 70, 0, 0, None],
    ]
    metrics, _ = derive.per_layer(recorded, [], [])
    assert metrics["net.backward_ms.p50"]["value"] == pytest.approx(30e-6)
    assert metrics["trainer.step_ms.p50"]["value"] == pytest.approx(50e-6)
    assert metrics["autodiff.tape_nodes_per_step"]["value"] == 5


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == derive.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == derive.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_harness_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train_default",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
