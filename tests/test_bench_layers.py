"""The benchmark's traced layers must name functions that exist, and its work
counts must agree with the run they trace.

`bench/spans.py` wraps each `LAYERS` entry by module and attribute name, so
renaming or deleting a traced function in `src/` would break a traced
benchmark run, and its `COUNTS` read each call's arguments and result, so a
changed call would miscount. This loads the spans module by path, without
changing it, resolves every entry against the installed package, and traces
one small run.
"""

import importlib
from pathlib import Path

import pytest

from skipalign.cli import run_experiment
from skipalign.config import resolve_config

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
