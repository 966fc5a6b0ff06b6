#!/usr/bin/env python3
"""Time the kernels and the pipelines of one or more source checkouts
and print one JSON record.

Every row runs the same way: its set-up runs untimed in a fresh
interpreter, then one call is timed in that interpreter.  A row's figure
for a checkout is the best of ``--repeat`` such processes: the call's
seconds ``s``, the process's peak RSS ``peak_rss_mib``, and
``children_peak_rss_mib``, the peak RSS of the largest child it reaped:
the processes that ``next_level`` forks to grow a large level, in the
set-up or the call (0 when it forked none).  A call whose result has
``ok`` must return an ok one.

The rows at the length L of ``--length`` come first:

- the dihedral canonical form of 20,000 seeded random words;
- one ``next_level`` step into L from the level below it, and the same
  step grown by ``_grow`` in one process and sorted, which separates the
  kernel's speed from the gain of forking;
- ``m_value`` on 2,000 seeded pairs of roots of unity;
- the enumeration of every length up to L, cold;
- ``verify_cover`` to L of the 27-pattern ``cor12`` pair and of the
  651-pattern pair of three refinement steps from ``builtin:base``, and
  ``verify_thm_subseqs(L)``, each over levels (and a pair) built in the
  set-up;
- ``classify_mu(L)`` and ``solve_triples((2,2,5), L)`` cold, that
  ``solve_triples`` again after ``classify_mu(L)``, and
  ``check_generic_rows(48)``;
- two CLI commands run in process by ``cli.main`` with stdout sent to
  ``os.devnull``: ``enumerate --length L --json`` over the level built in
  the set-up, and the third ``cover-step --json`` from ``builtin:base``,
  whose first two steps write their pair files in the set-up.

The fixed rows follow, so that records at any length share them: cold
``classify_mu`` at 24, 40 and 48, ``solve_triples((2,2,5), M)`` cold and
after ``classify_mu(M)`` at M = 12 and 24, both covers to 15 and
``verify_thm_subseqs(13)``.  A row of both kinds runs once.

``--src`` names a checkout whose ``src`` is imported, so one copy of
this script times several commits alike; give it, say, a ``git archive``
of another commit.  Given more than once, each row runs its ``--repeat``
processes per checkout alternated process by process, repeat r starting
from checkout r mod their number, so that a host which drifts between
fast and slow states shares each state among them.  The record names the
Python version, the core count, the length and the repeat count, and
then, per checkout in ``--src`` order, its path, kernel backend, the
CPUs the enumeration may fork onto and its figure per row; one checkout
gives the same record with one entry.  Run from the repository root:

    python3 benchmarks/benchmark_kernels.py [--src .] [--src ../other] [--length 13] [--repeat 3]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Runs the set-up in argv[1], times the call in argv[2] and prints its figure.
CHILD = """
import json, random, resource, sys, time
from collections import deque
from itertools import starmap
from quiddity import *
from quiddity import cycles, kernels
exec(sys.argv[1])
t0 = time.perf_counter()
result = eval(sys.argv[2])
s = time.perf_counter() - t0
assert getattr(result, "ok", True), sys.argv[2]
mib = lambda who: round(resource.getrusage(who).ru_maxrss / 1024.0, 1)
print(json.dumps({
    "figure": {
        "s": round(s, 4),
        "peak_rss_mib": mib(resource.RUSAGE_SELF),
        "children_peak_rss_mib": mib(resource.RUSAGE_CHILDREN),
    },
    "backend": kernels.backend(),
    "enumeration_cpus": kernels._jobs(sys.maxsize),
}))
"""

#: 20,000 words of length 4-16 and 2,000 pairs of roots of unity of order
#: up to 48, from one seeded generator.
SEEDED = """
rng = random.Random(12345)
words = [tuple(rng.randint(0, 8) for _ in range(rng.randint(4, 16))) for _ in range(20000)]
def root():
    k = rng.randint(1, 48)
    return Scalar.root_of_unity(k, rng.randrange(k))
pairs = [(root(), root()) for _ in range(2000)]
"""

REFINED = """
pair = BUILTIN_PAIRS["base"]
for _ in range(3):
    pair = theorem_step(pair)
"""

#: ``quiet(*argv)`` runs one CLI command with stdout sent to os.devnull
#: and asserts that it exits 0; ``pair(k)`` names the pair file of step k.
CLI = """
import contextlib, os, tempfile
from quiddity import cli
workdir = tempfile.TemporaryDirectory()
pair = lambda k: os.path.join(workdir.name, f"pair{k}.json")
def quiet(*argv):
    with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
"""

STEPS = CLI + """
quiet("cover-step", "--in", "builtin:base", "--out", pair(1))
quiet("cover-step", "--in", pair(1), "--out", pair(2))
"""


def covers(n):
    levels = f"cycles._level({n})"
    return {
        f"verify_cover(cor12, {n})": (levels, f"verify_cover(BUILTIN_PAIRS['cor12'], {n})"),
        f"verify_cover(depth-3 refined, {n})": (levels + REFINED, f"verify_cover(pair, {n})"),
    }


def thm(n):
    return {f"verify_thm_subseqs({n})": (f"cycles._level({n})", f"verify_thm_subseqs({n})")}


def classify(n):
    return {f"classify_mu({n}) cold": ("", f"classify_mu({n})")}


def solve(n):
    call = f"solve_triples((2, 2, 5), {n})"
    return {
        f"solve_triples((2,2,5), {n}) cold": ("", call),
        f"solve_triples((2,2,5), {n}) after classify_mu({n})": (f"classify_mu({n})", call),
    }


def rows(n):
    """Name -> (untimed set-up, timed call) of every row: those at length
    n first, then the fixed ones."""
    parents = f"parents = cycles._level({n - 1})"
    at_n = {
        "canonical_form(w) x20k": (SEEDED, "deque(map(kernels.canonical_form, words), 0)"),
        f"next_level(_level({n - 1}))": (parents, "kernels.next_level(parents)"),
        f"sorted(_grow(_level({n - 1})))": (
            parents, f"sorted(kernels._tuples(kernels._grow(parents), {n}))"
        ),
        "m_value(a, b) x2k": (SEEDED, "deque(starmap(m_value, pairs), 0)"),
        f"enumerate_cycles({n}) cold": ("", f"enumerate_cycles({n})"),
        **covers(n),
        **thm(n),
        **classify(n),
        **solve(n),
        "check_generic_rows(48)": ("", "check_generic_rows(48)"),
        f"cli enumerate --length {n} --json": (
            CLI + f"cycles._level({n})", f"quiet('enumerate', '--length', '{n}', '--json')"
        ),
        "cli cover-step 3 from builtin:base --json": (
            STEPS, "quiet('cover-step', '--in', pair(2), '--out', pair(3), '--json')"
        ),
    }
    fixed = classify(24) | classify(40) | classify(48) | solve(12) | solve(24)
    return at_n | fixed | covers(15) | thm(13)


def run_child(src: Path, setup: str, call: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve() / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, setup, call],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--src", type=Path, action="append", help="checkout to time (repeatable; default .)"
    )
    parser.add_argument(
        "--length", type=int, default=13, help="enumeration length and root-of-unity sweep bound"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best of N processes")
    args = parser.parse_args(argv)
    if args.length < 4:
        parser.error("--length must be >= 4: next_level grows from length 3")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    srcs = args.src or [Path(".")]
    checkouts = [
        {"src": str(src), "backend": None, "enumeration_cpus": None, "figures": {}}
        for src in srcs
    ]
    for name, (setup, call) in rows(args.length).items():
        runs = [[] for _ in srcs]
        for r in range(args.repeat):
            for j in range(len(srcs)):  # repeat r starts from checkout r mod len(srcs)
                k = (r + j) % len(srcs)
                runs[k].append(run_child(srcs[k], setup, call))
        for checkout, own in zip(checkouts, runs):
            # every process of one checkout reports the same backend and CPUs
            checkout["backend"] = own[0]["backend"]
            checkout["enumeration_cpus"] = own[0]["enumeration_cpus"]
            checkout["figures"][name] = min((run["figure"] for run in own), key=lambda f: f["s"])
    record = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "length": args.length,
        "repeat": args.repeat,
        "checkouts": checkouts,
    }
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
