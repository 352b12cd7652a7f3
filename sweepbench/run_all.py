"""Run every sweep-benchmark workload and print its end-to-end metrics.

    python3 sweepbench/run_all.py [--seed 0]

Each workload runs in its own process, so each gets a fresh JVM, for
``run_seconds`` from ``BENCHMARK.json``. Prints one line per metric
(name, value, unit) under a line per workload that says whether its
output checks passed. Exits non-zero if any run fails or reports
incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        ok = "correct" if result["correct"] else "INCORRECT"
        print(f"{name}: {result['attempted']} units, {result['failed']} failed, {ok}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
