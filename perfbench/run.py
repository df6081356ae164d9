"""Benchmark for regvar: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the program is imported from src/ next to this directory.
A run sets up its workload several times (timing each set-up), then repeats
timed passes for about --seconds seconds, checks every output, and prints
one JSON object as its last line. --trace 0 reports the end-to-end metrics
(setup_s, pass_s, peak_rss_mb); --trace 1 wraps the library's public
functions with spans and reports per-layer metrics instead. Run outputs go
to perfbench/out/. The exit code is 0 when every check passed, 1 when one
failed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("verify-suite", "file-pipeline", "sample-scan")
SETUP_REPEATS = 3


class Clock:
    """Runs calls and adds their process CPU time (all threads) to `cpu` and
    their wall time to `wall`."""

    def __init__(self):
        self.cpu = 0.0
        self.wall = 0.0

    def __call__(self, fn, *args):
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall


def _cpu_seconds() -> float:
    """CPU time, user plus system, of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _set_up(cls, seed, workdir):
    """One set-up: a fresh interpreter importing regvar, then the workload's
    inputs and warm-up in this process. Returns the workload, the set-up's
    CPU seconds and its wall seconds."""
    cpu, wall = _cpu_seconds(), time.perf_counter()
    subprocess.run([sys.executable, "-c", "import regvar"], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    workload = cls(seed, workdir)
    workload.warm_up()
    return workload, _cpu_seconds() - cpu, time.perf_counter() - wall


def run_workload(args) -> dict:
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, setups_wall = [], []
        for _ in range(SETUP_REPEATS):
            workload, cpu, wall = _set_up(cls, args.seed, workdir)
            setups.append(cpu)
            setups_wall.append(wall)

        tracer = Tracer() if args.trace else None
        clock, pass_cpu, pass_wall, failed, errors = Clock(), [], [], 0, []
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            while True:
                began, cpu_before, wall_before = time.perf_counter(), clock.cpu, clock.wall
                pass_failed, pass_errors = workload.run_pass(clock)
                pass_cpu.append(clock.cpu - cpu_before)
                pass_wall.append(clock.wall - wall_before)
                failed += pass_failed
                errors += pass_errors
                now = time.perf_counter()
                if now - start + (now - began) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        errors += workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(pass_cpu)
    if tracer:
        metrics = tracer.metrics(passes)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "pass_s": {"value": statistics.median(pass_cpu), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": not errors, "attempted": passes * workload.ops_per_pass,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "pass_cpu_s": pass_cpu, "pass_wall_s": pass_wall,
                   "setup_cpu_s": setups, "setup_wall_s": setups_wall,
                   "errors": errors}, fh, indent=1)
    median = statistics.median
    print(f"{args.workload}{' (traced)' if tracer else ''}: {passes} passes; "
          f"median pass {median(pass_cpu):.4f} s CPU, {median(pass_wall):.4f} s wall; "
          f"median set-up {median(setups):.4f} s CPU, {median(setups_wall):.4f} s wall")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and memory are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            raise SystemExit(child.returncode or 2)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regvar" / "__init__.py").is_file():
        print(f"error: regvar sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
