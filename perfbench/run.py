"""Benchmark entry point: one run of one workload with one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fpu-pipeline --seed 1 \\
        --seconds 45 --trace 0

The run times the set-up in two probe processes, then starts the
measuring process (``perfbench/workload.py``), which sets up a third
time, runs and checks the workload, and prints the result object as
the last line of standard output.  ``setup_s`` is the median of the
three set-ups.  Every child runs with ``src`` on ``PYTHONPATH`` and a
fixed ``PYTHONHASHSEED``, so a run's inputs depend on ``--seed`` alone.

All files go under ``.perfbench_runs/`` in the checkout: per-run
artifact caches (deleted when the run ends) and, with ``--trace 1``,
the JSONL trace ``trace-<workload>-<seed>.jsonl``, which
``python -m repro trace summarize`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workload.py")
RUNS_DIR = ".perfbench_runs"

#: Set-up probes run before the measuring process.
SETUP_PROBES = 2

#: A run must end within this many seconds of starting.
RUN_DEADLINE_S = 170.0
PROBE_TIMEOUT_S = 30.0


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _check_checkout() -> str:
    """Why this directory cannot be benchmarked, or '' if it can."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        return "no program sources at src/repro (run from a checkout root)"
    if not os.path.isfile("BENCHMARK.json"):
        return "no BENCHMARK.json in the current directory"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fpu-pipeline", "alu-fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = _check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    start = time.monotonic()
    env = _child_env()
    run_dir = os.path.join(
        RUNS_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}"
    )
    os.makedirs(run_dir, exist_ok=True)
    try:
        samples = []
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, WORKER, "--workload", args.workload,
                 "--setup-only"],
                env=env, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S,
            )
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                print("perfbench: set-up probe failed", file=sys.stderr)
                return 1
            samples.append(
                json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"]
            )
        command = [
            sys.executable, WORKER,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--run-dir", run_dir,
            "--setup-samples", ",".join(repr(s) for s in samples),
        ]
        if args.trace:
            command += [
                "--trace-file",
                os.path.join(
                    RUNS_DIR, f"trace-{args.workload}-{args.seed}.jsonl"
                ),
            ]
        remaining = RUN_DEADLINE_S - (time.monotonic() - start)
        try:
            # subprocess.run kills and reaps the child on timeout.
            worker = subprocess.run(command, env=env, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 1
        return worker.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: set-up probe timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
