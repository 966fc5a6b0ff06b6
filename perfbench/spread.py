#!/usr/bin/env python3
"""Run one workload on several seeds and print each end-to-end metric's
median, quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --workload cycles --seeds 301-310

Run from the root of a source checkout, like ``run.py``.  Each run lasts
``run_seconds`` from BENCHMARK.json and reports the end-to-end metrics
(``--trace 0``).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    first, last = map(int, args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first, last + 1):
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {time.monotonic() - began:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print(f"{name}: median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / med:.3f}")
    print("failed share, correct:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
