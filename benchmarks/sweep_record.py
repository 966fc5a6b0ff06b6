#!/usr/bin/env python3
"""Time the root-of-unity sweeps and the cover checks of a source
checkout and print one JSON record.

Each figure is the best of ``--repeat`` fresh interpreters, so every call
starts with empty memos, with the peak RSS of that best process:

- ``classify_mu(n)`` cold, for n = 24, 40 and 48;
- ``solve_triples((2,2,5), L)`` cold, for L = 12 and 24;
- the same ``solve_triples`` call timed after an untimed
  ``classify_mu(L)`` in the same process;
- ``verify_cover`` to 15 of the 27-pattern ``cor12`` pair and of the
  651-pattern pair of three refinement steps from ``builtin:base``, and
  ``verify_thm_subseqs(13)``, each timed after the levels it reads (and
  the refined pair) are built untimed in the same process.

The record names the Python version, the core count, the CPUs the
enumeration may fork onto (one for a checkout whose ``next_level``
cannot fork) and the kernel backend.  ``--src`` selects the checkout
whose ``src`` is imported, so one copy of this script times two commits
alike; give it, say, a ``git archive`` of another commit.  Run from the repository root:

    python3 benchmarks/sweep_record.py [--src .] [--repeat 3]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, sys, time
import quiddity as q
kind, n = sys.argv[1], int(sys.argv[2])
pair = q.BUILTIN_PAIRS["cor12"]
if kind == "solve warm":
    q.classify_mu(n)
if kind in ("cover", "cover refined", "thm"):
    for k in range(2, n + 1):
        q.enumerate_cycles(k)
if kind == "cover refined":
    pair = q.BUILTIN_PAIRS["base"]
    for _ in range(3):
        pair = q.theorem_step(pair)
t0 = time.perf_counter()
if kind == "classify":
    q.classify_mu(n)
elif kind == "thm":
    q.verify_thm_subseqs(n)
elif kind.startswith("cover"):
    q.verify_cover(pair, n)
else:
    q.solve_triples((2, 2, 5), n)
s = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
# the processes a level may grow in; one in checkouts whose next_level cannot fork
cpus = getattr(q.kernels, "_jobs", lambda parents: 1)(sys.maxsize)
print(json.dumps({"s": s, "rss_mib": rss, "backend": q.kernels.backend(), "cpus": cpus}))
"""


def run_child(src: Path, kind: str, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, kind, str(n)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(proc.stdout)


def best_of(src: Path, kind: str, n: int, repeat: int) -> dict:
    return min((run_child(src, kind, n) for _ in range(repeat)), key=lambda r: r["s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", type=Path, default=Path("."), help="checkout to time")
    parser.add_argument("--repeat", type=int, default=3, help="best of N processes")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    figures = {}
    for n in (24, 40, 48):
        figures[f"classify_mu({n}) cold"] = best_of(args.src, "classify", n, args.repeat)
    for n in (12, 24):
        figures[f"solve_triples((2,2,5), {n}) cold"] = best_of(args.src, "solve", n, args.repeat)
        figures[f"solve_triples((2,2,5), {n}) after classify_mu({n})"] = best_of(
            args.src, "solve warm", n, args.repeat
        )
    figures["verify_cover(cor12, 15)"] = best_of(args.src, "cover", 15, args.repeat)
    figures["verify_cover(depth-3 refined, 15)"] = best_of(
        args.src, "cover refined", 15, args.repeat
    )
    figures["verify_thm_subseqs(13)"] = best_of(args.src, "thm", 13, args.repeat)
    backends = {f.pop("backend") for f in figures.values()}
    record = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "enumeration_cpus": max(f.pop("cpus") for f in figures.values()),
        "backend": ",".join(sorted(backends)),
        "repeat": args.repeat,
        "figures": {
            name: {"s": round(f["s"], 4), "peak_rss_mib": round(f["rss_mib"], 1)}
            for name, f in figures.items()
        },
    }
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
