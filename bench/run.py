#!/usr/bin/env python3
"""Benchmark harness for skipalign.

    python3 bench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

Runs one workload from workloads.py in this process, as a closed loop with
one client, for --seconds, then prints one line per metric and, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics. Only the coarse spans they need
are recorded (a few per operation).
--trace 1 runs every operation twice at the same config seed, untraced
and with spans around each layer's public function, alternating which twin
goes first. The two must write byte-identical artifacts, and every traced
span must lie inside its parent with a self time >= 0; otherwise the run
reports correct false. It reports the per-layer metrics, and the
difference between the twins' training speed as the tracing overhead.

The full result (environment, per-operation records, the per-train time
accounting) and, when traced, the spans go to .bench_out/ in the checkout.
The package is imported from src/ of the checkout; without it the harness
exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = ROOT / "tests" / "golden" / "metrics.csv"
WORKLOAD_NAMES = ("train_default", "eval_large", "sweep_loss_combo")
# One BLAS thread: no more than nproc on any machine, and the matrices are
# at most 18,000 x 32, too small to gain from more.
BLAS_THREADS = 1
# Setup samples per untraced run, spread over its measuring window so that
# they see the same drift of the host's speed as the operations do.
SETUP_SAMPLES = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description="skipalign benchmark harness")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix BLAS threads before numpy loads, and drop SKIPALIGN_ overrides so
    the program sees only the generated configs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for var in [v for v in os.environ if v.startswith("SKIPALIGN_")]:
        del os.environ[var]
    sys.path.insert(0, str(SRC))


def setup(workload_name: str, seed: int):
    """Imports, resolve_config and generate: what runs before the first operation."""
    import derive  # noqa: F401  (imported here so the probe pays for it too)
    from workloads import WORKLOADS
    from skipalign.config import resolve_config
    from skipalign.synthdata import generate

    workload = WORKLOADS[workload_name]
    generate(resolve_config(workload.raw(seed)).scenario)
    return workload


def sample_setup_s(workload_name: str, seed: int, n: int) -> list[float]:
    """Seconds from spawning an interpreter until it has run setup(), for n samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return samples


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    pattern = str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_commit": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()
    return {"git_commit": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads_set": BLAS_THREADS, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), **git_state()}


def run_op(workload, seed: int, tracer, traced: bool, out: Path, index: int) -> tuple[dict, list]:
    """One operation and its correctness checks, under tracer; failures are recorded."""
    from workloads import verify

    tracer.run = index
    record = {"seed": seed, "traced": traced, "failures": []}
    run_dirs = []
    with tracer:
        start = time.perf_counter()
        try:
            run_dirs = workload.op(workload.raw(seed), out)
        except Exception as err:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record["failures"].append(f"{type(err).__name__}: {err}")
        record["wall_s"] = time.perf_counter() - start
        if run_dirs:
            try:
                record["failures"] += verify(workload, seed, run_dirs, GOLDEN)
            except Exception as err:  # a check that cannot run fails its operation
                traceback.print_exc(file=sys.stderr)
                record["failures"].append(f"check raised {type(err).__name__}: {err}")
    return record, run_dirs


def compare_twins(untraced: list, traced: list) -> list:
    """The traced twin must write the same bytes: wrappers perturb nothing."""
    failures = []
    for a, b in zip(untraced, traced):
        for name in ("metrics.csv", "runlog.jsonl", "checkpoint.json"):
            if (a / name).read_bytes() != (b / name).read_bytes():
                failures.append(f"traced {b.name}/{name} differs from the untraced run")
    if len(untraced) != len(traced):
        failures.append("traced and untraced operations made different run counts")
    return failures


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Operations for `seconds` of operation time; untraced, setup samples
    taken between operations, their own time kept out of the window."""
    from derive import artifact_counts
    from spans import COARSE, Tracer

    coarse = Tracer(COARSE)
    full = Tracer() if trace else None
    ops = []
    artifacts = []
    setup_samples = []
    sampling = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        op_seed = seed + index
        # Traced twins alternate between running second and first, so that
        # an order effect does not enter the tracing overhead.
        modes = ([False, True] if index % 2 == 0 else [True, False]) if trace else [False]
        records, dirs = {}, {}
        for traced in modes:
            records[traced], dirs[traced] = run_op(
                workload, op_seed, full if traced else coarse, traced,
                work / ("traced" if traced else "untraced"), index)
            ops.append(records[traced])
        if trace and dirs[False] and dirs[True]:
            records[True]["failures"] += compare_twins(dirs[False], dirs[True])
            artifacts += [artifact_counts(d) for d in dirs[True]]
        shutil.rmtree(work, ignore_errors=True)
        index += 1
        elapsed = time.perf_counter() - start - sampling
        if not trace:
            due = SETUP_SAMPLES if elapsed >= seconds else int(SETUP_SAMPLES * elapsed / seconds)
            sample_start = time.perf_counter()
            setup_samples += sample_setup_s(workload.name, seed, due - len(setup_samples))
            sampling += time.perf_counter() - sample_start
        if elapsed >= seconds:
            break
    return {"ops": ops, "coarse": coarse, "full": full, "artifacts": artifacts,
            "setup_samples": setup_samples}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skipalign").is_dir():
        print(f"skipalign sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    workload = setup(args.workload, args.seed)
    import derive
    from spans import nesting_errors
    from workloads import shrink

    env = environment()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        # Warm-up on a shrunken config: first-call costs stay out of the timing.
        # If it fails, the timed operations fail too and are counted there.
        try:
            workload.op(shrink(workload.raw(args.seed)), work / "warmup")
        except Exception:
            traceback.print_exc(file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        run = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = run["ops"]
    failed = sum(1 for op in ops if op["failures"])
    correct = failed == 0
    details = {}
    if args.trace:
        spans = run["full"].spans
        metrics, details["train_accounting_ms"] = derive.per_layer(
            spans, run["coarse"].spans, run["artifacts"])
        details["span_errors"] = nesting_errors(spans)[:20]
        # Broken span arithmetic makes every per-layer figure suspect.
        correct = correct and not details["span_errors"]
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        op_wall = sum(op["wall_s"] for op in ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = derive.end_to_end(run["coarse"].spans, op_wall,
                                    statistics.median(run["setup_samples"]), rss_mb)
        details["setup_samples_s"] = run["setup_samples"]
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, **result, "details": details, "ops": ops}
    result_path = OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(full, indent=1))

    print(f"env {json.dumps(env)}")
    for op in ops:
        if op["failures"]:
            print(f"FAILED op seed={op['seed']} traced={op['traced']}: {op['failures']}")
    for error in details.get("span_errors", []):
        print(f"span check: {error}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_ratio = {failed}/{len(ops)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
