"""Every end-to-end metric of every workload, by name and unit, in one command.

    python3 perfbench/report.py [--seed 1]

Runs ``run.py`` once per workload listed in ``BENCHMARK.json``, one process
at a time, for the file's ``run_seconds`` with tracing off, and prints one
line per end-to-end metric.  Each run checks every solve
against its oracle; a run whose solves produced wrong outputs makes this
command exit 1.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w["name"]]
        cmd += ["--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(
            f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
