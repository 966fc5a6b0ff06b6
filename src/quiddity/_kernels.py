"""Pure-Python reference kernels for the hot inner loops.

``canonical_form`` and ``insert_fanout`` dominate the runtime of
enumeration; the two containment scans serve single-pattern searches
(``contains_cyclic``, ``cor15_check``, ``verify_thm_subseqs``).
``verify_cover`` uses none of them: it looks cyclic windows up in sets of
patterns.  ``quiddity._ckernels`` implements the same signatures in
Cython; ``quiddity.kernels`` picks one backend at import time.  Both
backends must stay behaviourally identical (see tests/test_kernels.py).
"""

from __future__ import annotations

BACKEND_NAME = "python"


def canonical_form(seq: tuple) -> tuple:
    """Lexicographically least tuple over all rotations of ``seq`` and of
    its reversal (the dihedral orbit of the cyclic word).

    The least rotation starts at an entry equal to ``min(seq)``, so only
    rotations from those entries are compared, in both directions.  For a
    quiddity cycle of length >= 3 these are its ears."""
    n = len(seq)
    if n == 0:
        return seq
    m = min(seq)
    d = seq + seq
    r = seq[::-1]
    dr = r + r
    return min(
        [d[i : i + n] for i in range(n) if seq[i] == m]
        + [dr[i : i + n] for i in range(n) if r[i] == m]
    )


def cyclic_contains(word: tuple, pat: tuple) -> bool:
    """True iff ``pat`` occurs as a consecutive run in the cyclic word
    ``word``, read in either direction.  A pattern longer than the word
    never matches; one of equal length matches iff it is a rotation or
    reflected rotation."""
    n, m = len(word), len(pat)
    if m > n or m == 0:
        return m == 0
    for rep in (word, word[::-1]):
        d = rep + rep
        for i in range(n):
            if d[i : i + m] == pat:
                return True
    return False


def linear_contains(seq: tuple, pat: tuple) -> bool:
    """Plain consecutive-subsequence test, no wraparound, given
    orientation only."""
    n, m = len(seq), len(pat)
    if m > n:
        return False
    if m == 0:
        return True
    first = pat[0]
    for i in range(n - m + 1):
        if seq[i] == first and seq[i : i + m] == pat:
            return True
    return False


def insert_fanout(rep: tuple) -> list:
    """Canonical forms of every single-ear insertion into the cycle
    ``rep``: a 1 is inserted between each pair of cyclically adjacent
    entries and both neighbours are incremented.  This is the inner loop
    of the length-by-length enumeration."""
    n = len(rep)
    out = []
    for i in range(n - 1):
        out.append(
            canonical_form(rep[:i] + (rep[i] + 1, 1, rep[i + 1] + 1) + rep[i + 2 :])
        )
    # wraparound edge: insert between the last and first entries
    out.append(canonical_form((rep[0] + 1,) + rep[1 : n - 1] + (rep[n - 1] + 1, 1)))
    return out
