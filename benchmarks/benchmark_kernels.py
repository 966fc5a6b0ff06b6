#!/usr/bin/env python3
"""Time the kernels and the pipelines built on them.

Eleven workloads: the dihedral canonical form on random words (micro),
one ``next_level`` step into a length from the warm level below it
(kernel), ``m_value`` on 2,000 seeded pairs of roots of unity (kernel),
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
version and the core count.  Run from the repository root:

    python3 benchmarks/benchmark_kernels.py [--length 13] [--repeat 3]
"""

import argparse
import os
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quiddity import Scalar, kernels  # noqa: E402


def bench_canonical(words, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for w in words:
            kernels.canonical_form(w)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_next_level(length, repeat):
    """One level step: the canonical augmentation of every class of length
    ``length - 1``, whose levels are built outside the timing."""
    from quiddity import cycles

    parents = cycles._level(length - 1)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        kernels.next_level(parents)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_m_value(pairs, repeat):
    from quiddity import m_value

    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for qi, q in pairs:
            m_value(qi, q)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_enumerate(length, repeat):
    """Cold enumeration: the per-length class cache is emptied first."""
    from quiddity import cycles

    best = float("inf")
    for _ in range(repeat):
        cycles._levels.clear()
        t0 = time.perf_counter()
        cycles.enumerate_cycles(length)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cover(length, repeat):
    from quiddity.localdesc import BUILTIN_PAIRS, verify_cover

    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = verify_cover(BUILTIN_PAIRS["cor12"], length)
        best = min(best, time.perf_counter() - t0)
        assert report.ok
    return best


def bench_refined_cover(length, repeat):
    """The many-pattern cover: three refinement steps from the trivial
    pair, built once outside the timing."""
    from quiddity.localdesc import BUILTIN_PAIRS, theorem_step, verify_cover

    pair = BUILTIN_PAIRS["base"]
    for _ in range(3):
        pair = theorem_step(pair)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = verify_cover(pair, length)
        best = min(best, time.perf_counter() - t0)
        assert report.ok
    return best


def bench_subseqs(length, repeat):
    from quiddity.localdesc import verify_thm_subseqs

    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = verify_thm_subseqs(length)
        best = min(best, time.perf_counter() - t0)
        assert report.ok
    return best


def bench_classify(n_max, repeat):
    """Cold classification: the per-level sweep records, the verdicts drawn
    from them and the period decomposition caches are emptied first."""
    from quiddity import affine, charseq

    best = float("inf")
    for _ in range(repeat):
        charseq._sweeps.clear()
        affine._levels.clear()
        affine.decompose_affine.cache_clear()
        affine._block_ok.cache_clear()
        t0 = time.perf_counter()
        report = affine.classify_mu(n_max)
        best = min(best, time.perf_counter() - t0)
        assert report.ok
    return best


def bench_solve(bound, repeat):
    """Cold reconstruction: the per-level sweep records it shares with
    ``classify_mu`` are emptied first."""
    from quiddity import charseq

    best = float("inf")
    for _ in range(repeat):
        charseq._sweeps.clear()
        t0 = time.perf_counter()
        charseq.solve_triples((2, 2, 5), bound)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_solve_after_classify(bound, repeat):
    """Reconstruction over the sweep records left by an untimed
    classification to the same bound."""
    from quiddity import charseq, classify_mu

    classify_mu(bound)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        charseq.solve_triples((2, 2, 5), bound)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_generic_rows(max_order, repeat):
    from quiddity import check_generic_rows

    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = check_generic_rows(max_order)
        best = min(best, time.perf_counter() - t0)
        assert report.ok
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--length", type=int, default=13, help="enumeration length and root-of-unity sweep bound"
    )
    parser.add_argument("--repeat", type=int, default=3, help="best of N runs")
    args = parser.parse_args(argv)
    if args.length < 4:
        parser.error("--length must be >= 4: next_level grows from length 3")

    rng = random.Random(12345)
    words = [
        tuple(rng.randint(0, 8) for _ in range(rng.randint(4, 16))) for _ in range(20000)
    ]

    def root():
        n = rng.randint(1, 48)
        return Scalar.root_of_unity(n, rng.randrange(n))

    pairs = [(root(), root()) for _ in range(2000)]

    print(f"Python {platform.python_version()}, {os.cpu_count()} cores")
    results = {
        "canonical_form x20k": bench_canonical(words, args.repeat),
        f"next_level into {args.length}": bench_next_level(args.length, args.repeat),
        "m_value x2k": bench_m_value(pairs, args.repeat),
        f"enumerate to {args.length}": bench_enumerate(args.length, args.repeat),
        f"cover check to {args.length}": bench_cover(args.length, args.repeat),
        f"depth-3 cover to {args.length}": bench_refined_cover(args.length, args.repeat),
        f"verify_thm_subseqs({args.length})": bench_subseqs(args.length, args.repeat),
        f"classify_mu({args.length})": bench_classify(args.length, args.repeat),
        f"solve_triples((2,2,5), {args.length})": bench_solve(args.length, args.repeat),
        f"solve_triples((2,2,5), {args.length}) after classify_mu({args.length})": (
            bench_solve_after_classify(args.length, args.repeat)
        ),
        "check_generic_rows(48)": bench_generic_rows(48, args.repeat),
    }

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
