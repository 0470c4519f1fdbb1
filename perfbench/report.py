#!/usr/bin/env python3
"""Print every end-to-end metric of every workload in one table.

Usage, from the root of a source checkout:

    python3 perfbench/report.py --seed 1 --seconds 30

Each workload runs in its own process through ``run.py``, so peak memory
is the workload's own.  The inputs on which the seed program is known to
fail are included (``run.py --known-defects``), so ``error_rate`` shows
those defects.  A traced run of each workload follows its timed run and
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, ROOT, result_path  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 900


def run_workload(name: str, args, trace: int) -> dict:
    run_args = argparse.Namespace(
        workload=name, seed=args.seed, seconds=args.seconds, trace=trace, known_defects=True,
    )
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--known-defects",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["full"] = json.loads(result_path(run_args, ".json").read_text())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    columns = [*END_TO_END_UNITS.items(), ("error_rate", "1"), ("trace.overhead_s", "s")]
    header = ["workload", "requests"] + [f"{name} ({unit})" for name, unit in columns]
    lines = [header]
    for name in WORKLOADS:
        result = run_workload(name, args, 0)
        values = {key: m["value"] for key, m in result["metrics"].items()}
        values["error_rate"] = result["full"]["error_rate"]
        traced = run_workload(name, args, 1)
        values["trace.overhead_s"] = traced["metrics"]["trace.overhead_s"]["value"]
        requests = f"{result['full']['detail']['timed_requests']} timed, {result['attempted']} total"
        lines.append([name, requests] + [f"{values[key]:.4g}" for key, _ in columns])
        for failure in result["full"]["failures"][:2]:
            print(f"{name} failure ({failure['shape']}): {failure['reason'][:150]}", file=sys.stderr)
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    for row in lines:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
