"""The benchmark's traced layers must name functions that exist, and its work
counts must agree with the run they trace.

`bench/spans.py` wraps each `LAYERS` entry by module and attribute name, so
renaming or deleting a traced function in `src/` would break a traced
benchmark run, and its `COUNTS` read each call's arguments and result, so a
changed call would miscount. This loads the spans module by path, without
changing it, resolves every entry against the installed package, and traces
one small run. Last, it runs the harness's own traced operation, as
`bench/run.py --trace 1` does, on one default run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from skipalign.cli import run_experiment
from skipalign.config import resolve_config

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# The harness's modules, which import each other by these names.
HARNESS_MODULES = ("spans", "derive", "workloads", "run")


def load_spans() -> dict:
    """The spans module's names, from its source run in a fresh namespace: nothing
    is written next to it and the module is not registered."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), namespace)
    return namespace


SPANS = load_spans()
LAYERS = SPANS["LAYERS"]


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_traced_layer_resolves(name):
    module_name, attr = LAYERS[name]
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {module_name}.{attr} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module_name}.{attr} is not callable"


def test_traced_counts_match_the_run(tmp_path):
    raw = {"seed": 0,
           "scenario": {"test_id_per_class": 10, "test_seen_per_cluster": 10,
                        "test_unseen_per_cluster": 10},
           # Gate thresholds low enough that an untrained network passes some rows.
           "train": {"epochs": 2, "iters_per_epoch": 3, "tau_id": 0.3, "eta_id": 0.3}}
    cfg = resolve_config(raw)
    with SPANS["Tracer"]() as tracer:
        run_experiment(cfg, tmp_path)
    counts = {}
    for name, *_, count in tracer.spans:
        counts.setdefault(name, []).append(count)
    assert set(SPANS["COUNTS"]) <= set(counts)
    [trained] = counts["trainer.train"]
    assert trained["steps"] == 2 * 3
    # The first refresh takes the labeled means only; each epoch's takes the rows
    # its steps' gates accepted.
    assert len(counts["prototypes.refresh"]) == 1 + 2
    assert sum(counts["prototypes.refresh"]) == trained["accepted"] > 0
    test_rows = 4 * 10 + 2 * 10 + 3 * 10
    assert counts["metrics.evaluate"] == [test_rows]
    # The network sees the 100 labeled rows at each refresh, then each test row once:
    # the embedding dump writes what evaluate forwarded.
    assert counts["net.forward"] == [100, 100, 100, test_rows]


@pytest.fixture
def harness(monkeypatch):
    """The harness's modules, importable by their names for one test: nothing is
    written beside them, and none of them stays in sys.modules after it."""
    assert not set(HARNESS_MODULES) & set(sys.modules)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SPANS_PATH.parent))
    try:
        yield {name: importlib.import_module(name) for name in HARNESS_MODULES}
    finally:
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)


def test_traced_benchmark_operation(harness, tmp_path):
    # One operation of `bench/run.py --workload train_default --trace 1`: an untraced
    # and a traced default run, each checked, compared byte for byte, then derived
    # into per-layer metrics and checked for span nesting, as the harness's main does.
    run, derive, spans = harness["run"], harness["derive"], harness["spans"]
    result = run.measure(harness["workloads"].WORKLOADS["train_default"], 1, 0, True,
                         tmp_path / "work")
    assert [(op["traced"], op["failures"]) for op in result["ops"]] == [
        (False, []), (True, [])]
    metrics, _ = derive.per_layer(result["full"].spans, result["coarse"].spans,
                                  result["artifacts"])
    assert metrics["trainer.steps"]["value"] == 480
    assert spans.nesting_errors(result["full"].spans) == []
