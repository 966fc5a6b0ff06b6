#!/usr/bin/env python3
"""Time the kernels and the pipelines built on them.

Twelve workloads: the dihedral canonical form on random words (micro),
one ``next_level`` step into a length from the warm level below it, and
the same step grown by ``_grow`` in this process only and sorted, which
separates the kernel's speed from the gain of forking (kernels),
``m_value`` on 2,000 seeded pairs of roots of unity (kernel),
enumeration of all quiddity classes up to that length (macro), two cover verifications over that enumeration (macro) -- the
27-pattern ``cor12`` pair and the 651-pattern pair of three refinement
steps from ``builtin:base`` -- the interior-subsequence theorem
``verify_thm_subseqs`` to the same length (pipeline), the affine
classification ``classify_mu`` with n up to that length and the
reconstruction ``solve_triples`` of the window (2,2,5) to the same bound,
both cold (pipelines), ``solve_triples`` again over the sweep records the
classification left (pipeline), and the check of the three one-parameter
rows ``check_generic_rows`` at its default order 48 (pipeline).

``verify_cover`` searches each class with one compiled byte-trie
regular expression of its patterns, and ``verify_thm_subseqs`` ranks the
cyclic windows of each class and counts its representatives from its
symmetries; neither calls a kernel, and both reuse the levels that the
enumeration row has already cached.  The first line names the Python
version, the CPUs the enumeration may fork onto (one where
``next_level`` cannot fork) and the core count.  Run from the
repository root:

    python3 benchmarks/benchmark_kernels.py [--length 13] [--repeat 3]
"""

import argparse
import os
import platform
import random
import sys
import time
from collections import deque
from itertools import starmap
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiddity import (  # noqa: E402
    Scalar,
    affine,
    charseq,
    check_generic_rows,
    cycles,
    kernels,
    m_value,
)
from quiddity.localdesc import (  # noqa: E402
    BUILTIN_PAIRS,
    theorem_step,
    verify_cover,
    verify_thm_subseqs,
)


def best_of(call, repeat, reset=None, ok=False):
    """The least wall time of ``repeat`` runs of ``call()``, each after an
    untimed ``reset()`` when one is given; with ``ok``, every run's
    report must be ok."""
    best = float("inf")
    for _ in range(repeat):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        report = call()
        best = min(best, time.perf_counter() - t0)
        if ok:
            assert report.ok
    return best


def cold_classify():
    """Empty the per-level sweep records, the window verdicts and the
    period decomposition cache."""
    charseq._sweeps.clear()
    affine._verdicts.clear()
    affine.decompose_affine.cache_clear()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--length", type=int, default=13, help="enumeration length and root-of-unity sweep bound"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best of N runs")
    args = parser.parse_args(argv)
    if args.length < 4:
        parser.error("--length must be >= 4: next_level grows from length 3")
    n, repeat = args.length, args.repeat

    rng = random.Random(12345)
    words = [
        tuple(rng.randint(0, 8) for _ in range(rng.randint(4, 16))) for _ in range(20000)
    ]

    def root():
        k = rng.randint(1, 48)
        return Scalar.root_of_unity(k, rng.randrange(k))

    pairs = [(root(), root()) for _ in range(2000)]

    def solve():
        return charseq.solve_triples((2, 2, 5), n)

    # the processes a level of any size may grow in
    cpus = kernels._jobs(sys.maxsize)
    print(f"Python {platform.python_version()}, enumeration on {cpus} of {os.cpu_count()} cores")
    results = {}
    results["canonical_form x20k"] = best_of(
        lambda: deque(map(kernels.canonical_form, words), 0), repeat
    )
    parents = cycles._level(n - 1)  # built outside the timing
    results[f"next_level into {n}"] = best_of(lambda: kernels.next_level(parents), repeat)
    results[f"next_level into {n}, one process"] = best_of(
        lambda: sorted(kernels._tuples(kernels._grow(parents), n)), repeat
    )
    results["m_value x2k"] = best_of(lambda: deque(starmap(m_value, pairs), 0), repeat)
    results[f"enumerate to {n}"] = best_of(
        lambda: cycles.enumerate_cycles(n), repeat, reset=cycles._levels.clear
    )
    results[f"cover check to {n}"] = best_of(
        lambda: verify_cover(BUILTIN_PAIRS["cor12"], n), repeat, ok=True
    )
    refined = BUILTIN_PAIRS["base"]
    for _ in range(3):
        refined = theorem_step(refined)
    results[f"depth-3 cover to {n}"] = best_of(lambda: verify_cover(refined, n), repeat, ok=True)
    results[f"verify_thm_subseqs({n})"] = best_of(lambda: verify_thm_subseqs(n), repeat, ok=True)
    results[f"classify_mu({n})"] = best_of(
        lambda: affine.classify_mu(n), repeat, reset=cold_classify, ok=True
    )
    results[f"solve_triples((2,2,5), {n})"] = best_of(solve, repeat, reset=charseq._sweeps.clear)
    affine.classify_mu(n)  # the records the next row reads
    results[f"solve_triples((2,2,5), {n}) after classify_mu({n})"] = best_of(solve, repeat)
    results["check_generic_rows(48)"] = best_of(
        lambda: check_generic_rows(48), repeat, ok=True
    )

    width = max(len(w) for w in results) + 2
    header = f"{'workload':<{width}}{'best':>12}"
    print()
    print(header)
    print("-" * len(header))
    for w, seconds in results.items():
        print(f"{w:<{width}}{seconds:>11.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
