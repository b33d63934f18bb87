"""The work of a default training step and of one evaluation, counted rather than timed.

Timings on a shared host can read 15 % apart on identical code; call counts
do not move. This trains one epoch of the default config (40 steps) under
`sys.setprofile` and counts, in each step, every function call (Python and
built-in, as cProfile counts them), the Python-level calls among them, and
the `ufunc.reduce` calls behind numpy's sums, maxima and `all`/`any`. A ufunc
applied directly (`np.exp`, an operator) is no function call to the profiler
and is not counted. A step opens at its `trainer.lr_at` call and closes at the
next step's, or at the epoch's prototype refresh. The same three counts are
taken over one `metrics.evaluate` call per score rule, on a fixed test split
of EVAL_ROWS rows, which `evaluate` forwards in two row ranges.

The counts are pinned exactly in `golden/ledger.json`: per step, as a map from
count to the number of steps that made it, and per evaluation, by score rule,
with the Python and numpy versions they were taken on, which must match, and
the platform (`golden_files.platform_record`), which is recorded, not compared.
A change that adds or removes work in a step or an evaluation rewrites the
table in the same change and lists the old and new values. Rewrite it with
`PYTHONPATH=src python tests/test_work_ledger.py`, which prints each entry's
old and new counts; the golden files have their own rewriter,
`tests/golden_files.py`.
"""

import collections
import functools
import json
import platform
import sys
from pathlib import Path

import numpy as np

from skipalign import metrics, trainer
from skipalign.config import resolve_config
from skipalign.heads import normalize
from skipalign.net import init_params
from skipalign.synthdata import generate
from golden_files import platform_record

LEDGER_PATH = Path(__file__).parent / "golden" / "ledger.json"
COUNTERS = ("calls", "python_calls", "ufunc_reduce")
# Nine test clusters of 150 rows: more than metrics.FORWARD_CHUNK_ROWS, so two ranges.
EVAL_ROWS = 1350


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def tally(counts: collections.Counter, event: str, arg) -> None:
    """Count one profiler event: a call, a Python-level call, a `ufunc.reduce` call."""
    if event == "call":
        counts["calls"] += 1
        counts["python_calls"] += 1
    elif event == "c_call":
        counts["calls"] += 1
        if arg.__name__ == "reduce" and isinstance(getattr(arg, "__self__", None), np.ufunc):
            counts["ufunc_reduce"] += 1


def step_counts() -> list[dict]:
    """Each step's counters, for one epoch of the default config at seed 0."""
    cfg = resolve_config({"seed": 0, "train": {"epochs": 1}})
    split = generate(cfg.scenario)
    # Warm every cache (the spec's offsets, the config's slopes) so that the
    # counted run makes no first-call work.
    trainer.train(split, cfg.net, cfg.train)
    opens, closes = trainer.lr_at.__code__, trainer._refresh_prototypes.__code__
    steps, current = [], None

    def profile(frame, event, arg):
        nonlocal current
        if event == "call":
            if frame.f_code is opens:
                current = collections.Counter()
                steps.append(current)
            elif frame.f_code is closes:
                current = None
        if current is not None:
            tally(current, event, arg)

    sys.setprofile(profile)
    try:
        trainer.train(split, cfg.net, cfg.train)
    finally:
        sys.setprofile(None)
    return steps


def evaluation_counts(run) -> dict:
    """The counters of the one `metrics.evaluate` call that run() makes, from its call
    to its return."""
    counts, frame = collections.Counter(), None

    def profile(f, event, arg):
        nonlocal frame
        if event == "call" and frame is None and f.f_code is metrics.evaluate.__code__:
            frame = f
        if frame is not None:
            tally(counts, event, arg)
            if event == "return" and f is frame:
                frame = None

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {name: counts[name] for name in COUNTERS}


def evaluate_ledger() -> dict:
    """Each score rule's counters over one `evaluate` of an untrained network."""
    per = EVAL_ROWS // 9
    cfg = resolve_config({"seed": 0, "scenario": {
        "test_id_per_class": per, "test_seen_per_cluster": per, "test_unseen_per_cluster": per}})
    split = generate(cfg.scenario)
    assert split.test_x.shape[0] == EVAL_ROWS > metrics.FORWARD_CHUNK_ROWS
    params = init_params(cfg.net)
    unit_protos = normalize(np.random.default_rng(0).standard_normal(
        (cfg.net.num_classes, cfg.net.embed_dim)))[0]
    table = {"rows": EVAL_ROWS}
    for rule in metrics.SCORE_RULES:
        run = functools.partial(metrics.evaluate, params, split, unit_protos, rule)
        run()  # warm every first-call cache
        table[rule] = evaluation_counts(run)
    return table


def step_ledger() -> dict:
    steps = step_counts()
    table = {"steps": len(steps)}
    for name in COUNTERS:
        per_step = collections.Counter(step[name] for step in steps)
        table[name] = {str(count): per_step[count] for count in sorted(per_step)}
    return table


def mean(histogram: dict) -> float:
    return sum(int(count) * n for count, n in histogram.items()) / sum(histogram.values())


def committed_ledger() -> dict:
    committed = json.loads(LEDGER_PATH.read_text())
    here = versions()
    taken = {key: committed[key] for key in here}
    assert taken == here, (f"the ledger was taken on {taken}, this is {here}: retake it "
                           f"with `python tests/{Path(__file__).name}` on the committed code")
    return committed


def test_step_work_matches_the_ledger():
    committed = committed_ledger()
    measured = step_ledger()
    moved = {name: f"{mean(committed[name]):.2f} -> {mean(measured[name]):.2f} per step"
             for name in COUNTERS if measured[name] != committed[name]}
    assert measured == {key: committed[key] for key in measured}, (
        f"work per step moved: {moved}; measured {measured}")


def test_evaluation_work_matches_the_ledger():
    committed = committed_ledger()["evaluate"]
    measured = evaluate_ledger()
    moved = {rule: {name: f"{committed[rule][name]} -> {counts[name]}" for name in COUNTERS
                    if counts[name] != committed[rule][name]}
             for rule, counts in measured.items() if rule != "rows" and counts != committed[rule]}
    assert measured == committed, f"work per evaluation moved: {moved}; measured {measured}"


def changes(old: dict, new: dict) -> list[str]:
    """Each entry's old and new counts: per step as a mean and its histogram, per
    evaluation by score rule; an entry the old ledger lacks reads as None."""
    lines = []
    for name in COUNTERS:
        before = f"{mean(old[name]):.2f} {old[name]}" if name in old else "None"
        lines.append(f"step {name}: {before} -> {mean(new[name]):.2f} {new[name]}")
    for rule, counts in new["evaluate"].items():
        if rule != "rows":
            for name in COUNTERS:
                before = old.get("evaluate", {}).get(rule, {}).get(name)
                lines.append(f"evaluate {rule} {name}: {before} -> {counts[name]}")
    return lines


if __name__ == "__main__":
    old = json.loads(LEDGER_PATH.read_text()) if LEDGER_PATH.exists() else {}
    new = {**versions(), **platform_record(), **step_ledger(), "evaluate": evaluate_ledger()}
    LEDGER_PATH.write_text(json.dumps(new, indent=2) + "\n")
    print("\n".join(changes(old, new)))
    print(f"ledger written: {LEDGER_PATH}")
