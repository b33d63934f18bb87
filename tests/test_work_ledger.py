"""The work of a default training step, counted rather than timed.

Timings on a shared host can read 15 % apart on identical code; call counts
do not move. This trains one epoch of the default config (40 steps) under
`sys.setprofile` and counts, in each step, every function call (Python and
built-in, as cProfile counts them), the Python-level calls among them, and
the `ufunc.reduce` calls behind numpy's sums, maxima and `all`/`any`. A ufunc
applied directly (`np.exp`, an operator) is no function call to the profiler
and is not counted. A step opens at its `trainer.lr_at` call and closes at the
next step's, or at the epoch's prototype refresh.

The counts are pinned exactly in `golden/ledger.json`, as a map from count to
the number of steps that made it, with the Python and numpy versions they
were taken on. A change that adds or removes work in a step rewrites the
table in the same change and lists the old and new values. Rewrite it with
`python tests/test_work_ledger.py`.
"""

import collections
import json
import platform
import sys
from pathlib import Path

import numpy as np

from skipalign import trainer
from skipalign.config import resolve_config
from skipalign.synthdata import generate

LEDGER_PATH = Path(__file__).parent / "golden" / "ledger.json"
COUNTERS = ("calls", "python_calls", "ufunc_reduce")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


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
                current["calls"] += 1
                current["python_calls"] += 1
        elif event == "c_call" and current is not None:
            current["calls"] += 1
            if arg.__name__ == "reduce" and isinstance(getattr(arg, "__self__", None), np.ufunc):
                current["ufunc_reduce"] += 1

    sys.setprofile(profile)
    try:
        trainer.train(split, cfg.net, cfg.train)
    finally:
        sys.setprofile(None)
    return steps


def ledger() -> dict:
    steps = step_counts()
    table = {**versions(), "steps": len(steps)}
    for name in COUNTERS:
        per_step = collections.Counter(step[name] for step in steps)
        table[name] = {str(count): per_step[count] for count in sorted(per_step)}
    return table


def mean(histogram: dict) -> float:
    return sum(int(count) * n for count, n in histogram.items()) / sum(histogram.values())


def test_step_work_matches_the_ledger():
    committed = json.loads(LEDGER_PATH.read_text())
    here = versions()
    taken = {key: committed[key] for key in here}
    assert taken == here, (f"the ledger was taken on {taken}, this is {here}: retake it "
                           f"with `python tests/{Path(__file__).name}` on the committed code")
    measured = ledger()
    moved = {name: f"{mean(committed[name]):.2f} -> {mean(measured[name]):.2f} per step"
             for name in COUNTERS if measured[name] != committed[name]}
    assert measured == committed, f"work per step moved: {moved}; measured {measured}"


if __name__ == "__main__":
    LEDGER_PATH.write_text(json.dumps(ledger(), indent=2) + "\n")
    print(f"ledger written: {LEDGER_PATH}")
