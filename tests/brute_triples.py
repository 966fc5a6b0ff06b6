"""Brute-force loops over root-of-unity triples: the oracle that the
Galois-least sweep of ``quiddity.charseq`` is checked against."""

from math import gcd

from quiddity.charseq import CharSeqReport
from quiddity.cycles import Pattern


def level_triples(n):
    """Exponents (e1, e, e2) in (Z/n)^3 with gcd(n, e1, e, e2) == 1, i.e. of
    every triple of exact level n, lexicographically: J_3(n) of them."""
    for e1 in range(n):
        for e in range(n):
            for e2 in range(n):
                if gcd(n, e1, e, e2) == 1:
                    yield e1, e, e2


def root_of_unity_triples(n_max):
    """Exponents (n, e1, e, e2) of every triple of exact level n <= n_max,
    once each, by increasing n (see ``level_triples``)."""
    return ((n, *e) for n in range(1, n_max + 1) for e in level_triples(n))


def window_matches(report: CharSeqReport, window: Pattern):
    """Alignments of ``window`` in the bi-infinite periodic sequence of one
    walk, each with the window positions that sit on ends."""
    w = report.window
    length = report.state_period or len(w)
    if length == 0:
        return []
    k = len(window)
    reps = -(-(length + k - 1) // length)  # ceil
    tiled = tuple(w) * reps
    ends = report.end_offsets()
    out = []
    target = tuple(window)
    for off in range(length):
        if tiled[off : off + k] == target:
            end_offsets = tuple(j for j in range(k) if (off + j) % length in ends)
            out.append((off, end_offsets))
    return out
