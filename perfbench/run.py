"""depotcharge benchmark: one workload, one seed, one JSON line.

Usage::

    python3 perfbench/run.py --workload week --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory, nothing needs installing.  The run

1. times ``SETUP_REPEATS`` set-up processes (interpreter start,
   ``import depotcharge``, inputs written from the seed) and reports
   their median as ``setup_s``;
2. solves the minimum-CO2 LP oracle in its own process (``week`` and
   ``capped-co2``);
3. starts the workload process, which makes whole passes until
   ``--seconds`` is used, checks every schedule and output after each
   pass, and spoils the first pass's outputs to show every check
   rejects them;
4. prints a summary and, as its last line, ``{"correct", "attempted",
   "failed", "metrics"}``.  ``--trace 0`` gives the end-to-end metrics,
   ``--trace 1`` the per-layer ones, with the spans written to
   ``.perfbench_out/trace-<workload>-seed<seed>.json``.

This file uses only the standard library; the child processes import
numpy, scipy and the package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("week", "capped-co2", "fleet-4x")

#: Set-up processes per run; their median is ``setup_s``.
SETUP_REPEATS = 5

#: Whole-run deadline for child processes: ``DEADLINE_PER_SECOND`` times
#: ``--seconds`` plus ``DEADLINE_MARGIN_S`` for set-up, oracle and checks
#: (170 s at ``--seconds 30``).  A pass slowed fivefold still finishes
#: its two passes and reports its figures.
DEADLINE_PER_SECOND = 4.0
DEADLINE_MARGIN_S = 50.0


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> tuple[float, float]:
    """Run a worker command; return (wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}"
                         + (" after the deadline" if time.perf_counter() >= deadline else ""))
    return wall, usage.ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_PER_SECOND * seconds + DEADLINE_MARGIN_S
    work = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        setup_times = []
        for k in range(SETUP_REPEATS):
            wall, _ = _child(["setup", *common, "--out", str(work / f"setup{k}")], deadline)
            setup_times.append(wall)
        inputs = work / "setup0"
        same_inputs = all(
            _files(inputs) == _files(work / f"setup{k}") for k in range(1, SETUP_REPEATS)
        )

        run_args = ["run", *common, "--inputs", str(inputs), "--work", str(work),
                    "--seconds", str(seconds), "--trace", str(int(traced)),
                    "--result", str(work / "result.json")]
        if workload != "fleet-4x":
            _child(["oracle", *common, "--inputs", str(inputs),
                    "--result", str(work / "oracle.json")], deadline)
            run_args += ["--oracle", str(work / "oracle.json")]
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        if traced:
            run_args += ["--trace-file", str(trace_file)]
        _, peak_rss_mb = _child(run_args, deadline)
        with open(work / "result.json") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not same_inputs:
        result["problems"].append("setup: repeated set-ups wrote different inputs")
    for name, rejected in result["self_tests"].items():
        print(f"self-test {'PASS' if rejected else 'FAIL'}: {name}")
    for label, problem in result["failures"].items():
        print(f"failed operation {label}: {problem}")
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{workload} seed {seed}: {result['passes']} passes, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name in ("run_s", "traced_run_s"):
        if result[name]:
            print(f"{name} per pass: " + " ".join(f"{value:.3f}" for value in result[name]))

    if traced:
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith("_calls") else "s"}
            for name, value in result["layers"].items()
        }
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(result["run_s"]), "unit": "s"},
            "solve_s": {"value": statistics.median(result["solve_s"]), "unit": "s"},
            "slowest_solve_s": {"value": statistics.median(result["slowest_solve_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser(description="depotcharge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "depotcharge" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
