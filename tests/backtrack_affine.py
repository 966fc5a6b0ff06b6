"""The backtracking gluing search that ``quiddity.affine.decompose_affine``
replaced: the oracle that the junction-graph search is checked against.

It tries junction windows of 1, 2, ... ``max_multiple`` periods in turn and
backtracks over junction positions and splits, so its "None" holds only up
to that cutoff.
"""

from functools import lru_cache
from typing import Optional

from quiddity.affine import AffineDecomposition
from quiddity.cycles import Pattern, as_pattern, is_quiddity

_block_ok = lru_cache(maxsize=None)(is_quiddity)


def decompose_affine(period: Pattern, max_multiple: int = 3) -> Optional[AffineDecomposition]:
    """Search for a gluing of the bi-infinite sequence with period
    ``period`` into quiddity-cycle blocks; None when none exists with a
    junction pattern repeating within ``max_multiple`` periods.

    Every block of length r contributes entry sum 3(r-2), which forces
    any valid window of length N to carry exactly 3N - sum(window)
    junctions; the backtracking enforces that count exactly.
    """
    if max_multiple < 1:
        raise ValueError("max_multiple must be >= 1")
    p = as_pattern(period)
    for mult in range(1, max_multiple + 1):
        word = p * mult
        n = len(word)
        k_needed = 3 * n - sum(word)
        if k_needed < 1 or k_needed > n:
            continue
        for j0 in range(n):
            v0 = word[j0]
            if v0 < 2:
                continue
            for x0 in range(v0 - 1):
                y0 = v0 - 2 - x0
                found = _chain(word, n, j0, x0, y0, j0, y0, k_needed - 1)
                if found is not None:
                    junctions, blocks = found
                    return AffineDecomposition(
                        period=p,
                        period_multiple=mult,
                        junctions=((j0, x0, y0),)
                        + tuple((j % n, x, y) for (j, x, y) in junctions),
                        blocks=tuple(blocks),
                    )
    return None


def _chain(word, n, j0, x0, y0, prev_j, prev_y, remaining):
    """Extend a partial gluing: place the next junction after prev_j.

    Returns (junctions, blocks) past the first junction, or None.
    """
    limit = j0 + n
    for j in range(prev_j + 1, limit + 1):
        interior = tuple(word[t % n] for t in range(prev_j + 1, j))
        if j == limit:
            if remaining != 0:
                return None
            block = (prev_y,) + interior + (x0,)
            if _block_ok(block):
                return ((), (block,))
            return None
        if remaining == 0:
            continue
        v = word[j % n]
        if v < 2:
            continue
        for x in range(v - 1):
            y = v - 2 - x
            block = (prev_y,) + interior + (x,)
            if not _block_ok(block):
                continue
            rest = _chain(word, n, j0, x0, y0, j, y, remaining - 1)
            if rest is not None:
                junctions, blocks = rest
                return (((j, x, y),) + junctions, (block,) + blocks)
    return None
