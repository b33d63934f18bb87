#!/usr/bin/env python3
"""Run every workload over several seeds and print the metrics side by side.

    python3 bench/summary.py [--seeds 10] [--write bench/baseline.json]

Each workload in BENCHMARK.json runs once per seed untraced, in its own
process, for the run_seconds it fixes, then once traced at seed 0. For
every end-to-end metric the table gives the median, the quartiles, and
their distance as a share of the median next to the bound BENCHMARK.json
fixes; every run's correctness checks and failed operations are listed.
--write stores the medians, quartiles, the traced per-layer metrics and
the environment as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".bench_out" / f"result-{workload}-s{seed}-trace{trace}.json")
                      .read_text())
    return {**result, "env": full["env"], "details": full["details"]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", default=None, help="write the baseline to this file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    baseline = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = range(args.seeds)
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        print(f"\n== {workload}: {args.seeds} untraced runs of {seconds} s, "
              f"seeds 0..{args.seeds - 1}")
        for seed, r in zip(seeds, results):
            print(f"  seed {seed}: correct={r['correct']} "
                  f"ops_failed_ratio={r['failed']}/{r['attempted']}")
        entry = {"runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in results],
                 "end_to_end": {}}
        print(f"  {'metric':<22}{'unit':>9}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            unit = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = {"unit": unit, **stats}
            flag = ("" if stats["spread"] < bound / 3 else "  (above a third of the bound)"
                    if stats["spread"] <= bound else "  (ABOVE THE BOUND)")
            print(f"  {name:<22}{unit:>9}{stats['median']:>14.6g}{stats['q1']:>14.6g}"
                  f"{stats['q3']:>14.6g}{stats['spread']:>9.3f}{bound:>7.2f}{flag}")
        traced = run(workload, 0, seconds, 1)
        print(f"  traced run, seed 0: correct={traced['correct']} "
              f"ops_failed_ratio={traced['failed']}/{traced['attempted']}")
        for name, metric in traced["metrics"].items():
            print(f"    {name:<40}{metric['value']:>16.6g} {metric['unit']}")
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["train_accounting_ms"] = traced["details"]["train_accounting_ms"]
        entry["traced_run"] = {k: traced[k] for k in ("correct", "attempted", "failed")}
        baseline["workloads"][workload] = entry
        baseline["env"] = results[0]["env"]
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"\nbaseline written: {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
