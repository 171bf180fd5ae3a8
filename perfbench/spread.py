"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload single --seeds 1 2 3 4 5 --seconds 15

For every metric it prints the median and the interquartile range as a share
of the median, computed with ``statistics.quantiles(values, n=4)``.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        print(json.dumps({"seed": seed, **result}), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':40s} {'median':>14s} {'iqr/median':>11s}  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        shown = " ".join(f"{v:.6g}" for v in vals)
        print(f"{name:40s} {med:14.6g} {spread:11.4f}  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
