"""The hot inner loops, in pure Python.

``next_level`` is the inner loop of the enumeration: it grows a whole
level of canonical quiddity words on byte strings, canonicalizing each
child from its least ear prefix.  Every entry must fit in a byte, so the
enumeration stops at length 257.  ``canonical_form`` and
``insert_fanout`` serve single cycles (``DihedralCycle``, ``ear_insert``,
``delta_preimages``) and are the references that the tests check
``_ear_canonical`` and ``next_level`` against; the two containment
scans serve single-pattern searches (``contains_cyclic``, ``cor15_check``,
``verify_thm_subseqs``).  ``verify_cover`` uses none of them: it looks
cyclic windows up in sets of patterns.
"""

from __future__ import annotations


def backend() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "python"


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


def _ear_canonical(c: bytes) -> bytes:
    """``canonical_form`` of a quiddity cycle of length >= 4 held in bytes.

    Its least entry is 1 and no two 1s are adjacent, so the least
    rotation starts with (1, x), x >= 2 being the least neighbour of any
    ear.  Only the rotations of the word and of its reversal that start
    with the least such prefix present are compared."""
    n = len(c)
    d = c + c
    r = d[::-1]
    for x in range(2, 256):
        prefix = bytes((1, x))
        i = d.find(prefix, 0, n + 1)
        j = r.find(prefix, 0, n + 1)
        if i >= 0 or j >= 0:
            break
    best = None
    while i >= 0:
        rotation = d[i : i + n]
        if best is None or rotation < best:
            best = rotation
        i = d.find(prefix, i + 1, n + 1)
    while j >= 0:
        rotation = r[j : j + n]
        if best is None or rotation < best:
            best = rotation
        j = r.find(prefix, j + 1, n + 1)
    return best


def next_level(words) -> tuple:
    """The sorted canonical words of length k + 1 grown from ``words``,
    the canonical words of every quiddity class of length k >= 3.

    Each parent becomes ``bytes`` once; each single-ear insertion is cut
    from it by slicing and canonicalized by ``_ear_canonical``.  Every
    entry must fit in a byte, so k + 1 <= 257.  Duplicates drop in a set
    of tuples: a set of the byte strings, converted only at the end,
    raises the peak memory."""
    children = set()
    add = children.add
    for word in words:
        b = bytes(word)
        n = len(b)
        for i in range(n - 1):
            add(tuple(_ear_canonical(b[:i] + bytes((b[i] + 1, 1, b[i + 1] + 1)) + b[i + 2 :])))
        add(tuple(_ear_canonical(bytes((b[0] + 1,)) + b[1 : n - 1] + bytes((b[n - 1] + 1, 1)))))
    return tuple(sorted(children))
