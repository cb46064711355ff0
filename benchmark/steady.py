#!/usr/bin/env python3
"""Steadiness check: runs one workload over several seeds and prints,
per metric, the median and the interquartile spread as a share of it.

    python3 benchmark/steady.py --workload tournament --seeds 1-10 --seconds 20
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import quartiles, spread  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        _, med, _ = quartiles(vs)
        print(f"{name:28s} median {med:14.6g}  spread {spread(vs):7.3f}  "
              f"[{', '.join(f'{v:.6g}' for v in vs)}]")


if __name__ == "__main__":
    main()
