#!/usr/bin/env python3
"""Run the four workloads one after another and print every metric.

    python3 perfbench/all.py [--seed 1] [--seconds 20] [--trace 0]

Each workload runs in its own process, one at a time, so peak RSS and
set-up time are per workload. Lines read "<workload> <metric> = <value>
<unit>"; each workload ends with its JSON result line.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stream_encode", "tune_grid", "ground_sessions", "eval_protocol")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = Path(__file__).resolve().parent / "run.py"
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(runner), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, done.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
