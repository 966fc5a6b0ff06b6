"""Affine periodic sequences and the rank-two classification.

A bi-infinite periodic integer sequence is *affine* when it can be cut
into representatives of quiddity cycles glued end to end, each junction
entry carrying the two boundary entries plus 2.  ``decompose_affine``
decides this exactly: the junctions, taken modulo the period, form a
finite graph whose cycles are the gluings.  The entry-sum identity of
quiddity cycles fixes each block's last entry by its length and forces
3*len - sum junctions per period.

``classify_mu`` reads the level records of the root-of-unity sweep in
``charseq`` (one walk per Galois class of reflection orbits, from its
Galois-least key), decides each distinct window once whether it is
affine (the conjugates zeta -> zeta^u share a window, so they share the
verdict), and matches the affine orbits against the built-in
classification table (eleven root-of-unity rows plus three
one-parameter families, stored as walk states and checked by
specialization).  What depends only on a period is done once per period:
the verdict keeps an affine period's canonical key, which the table match
compares with each row's key, and each call checks the fifteen-pattern
condition once per distinct affine period.  It builds ``Triple``s only
for its reports.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from . import kernels
from .charseq import (
    SHAPE_BROKEN,
    SHAPE_CHAIN,
    Triple,
    _first_steps,
    _State,
    _swept,
    _triple,
    _units,
    _walk,
    minimal_period,
    walk,
)
from .cycles import Pattern, _Frozen, _Result, as_pattern, is_quiddity
from .localdesc import NINE_PATTERNS

#: Patterns one of which every affine sequence must contain (cyclically,
#: either orientation): the nine interior patterns plus six that arise
#: from gluing only short blocks.
FIFTEEN_PATTERNS: tuple[Pattern, ...] = NINE_PATTERNS + (
    (1, 3, 2), (1, 3, 3), (1, 4, 1, 4), (2, 1, 6), (2, 2, 2, 2), (3, 1, 6),
)


class AffineDecomposition(_Frozen):
    """A gluing of one junction-period of the sequence.

    ``blocks[t]`` sits between junction ``t`` and junction ``t+1``
    (cyclically); its first entry is the y-part of junction ``t`` and its
    last entry the x-part of junction ``t+1``.  ``junctions`` holds
    (position, x, y) with position indexing the tiled word, whose length
    is ``period_multiple`` copies of the period.
    """

    __slots__ = ("period", "period_multiple", "junctions", "blocks")

    def word(self) -> Pattern:
        return self.period * self.period_multiple

    def reassemble(self) -> Pattern:
        """Rebuild the tiled word from blocks and junctions (soundness)."""
        n = len(self.period) * self.period_multiple
        out: list[Optional[int]] = [None] * n
        k = len(self.junctions)
        for t, (pos, x, y) in enumerate(self.junctions):
            blk = self.blocks[t]
            nxt = self.junctions[(t + 1) % k]
            if blk[0] != y or blk[-1] != nxt[1]:
                raise ValueError("blocks do not meet their junction splits")
            out[pos % n] = x + 2 + y
            for j, val in enumerate(blk[1:-1], start=pos + 1):
                out[j % n] = val
        if any(v is None for v in out):
            raise ValueError("gaps between blocks")
        return tuple(out)  # type: ignore[arg-type]


#: Entries kept by the ``decompose_affine`` cache: ``classify_mu(24)``
#: decomposes 670 distinct periods, so no sweep to 24 evicts any.
_CACHE_SIZE = 4096


def decompose_affine(period: Iterable[int]) -> Optional[AffineDecomposition]:
    """A gluing of the bi-infinite sequence with period ``period`` into
    quiddity-cycle blocks, or None when none exists (an exact verdict).

    The junctions (j mod len(p), x), with y = p_j - 2 - x, form a finite
    graph whose edges are the blocks (``_blocks_from``); a gluing is a
    cycle of it, with 3*len(p) - sum(p) junctions per period (a block of
    length r sums to 3(r-2)), so that count must lie in [1, len(p)].  A
    depth-first search takes roots in (j, x) order and successors by
    distance, marks exhausted junctions dead and glues along the cycle
    its first back edge closes.  The cache holds the period as a tuple.
    """
    return _decompose(as_pattern(period))


@lru_cache(maxsize=_CACHE_SIZE)
def _decompose(p: Pattern) -> Optional[AffineDecomposition]:
    size = len(p)
    if not 1 <= 3 * size - sum(p) <= size:
        return None
    dead: set[tuple[int, int]] = set()
    for root in ((j, x) for j in range(size) for x in range(p[j] - 1)):
        if root in dead:
            continue
        # the junctions on the path in order, each with its absolute
        # position and the block into it, and their untried successors
        path = {root: (root[0], ())}
        todo = [(root[0], _blocks_from(p, *root))]
        while todo:
            i, successors = todo[-1]
            for d, x, block in successors:
                j = i + d
                node = (j % size, x)
                if node in path:
                    cycle = list(path.items())[list(path).index(node):]
                    start = cycle[0][1][0]
                    n, base = j - start, start - node[0]  # base: a multiple of size
                    return AffineDecomposition(
                        period=p,
                        period_multiple=n // size,
                        junctions=tuple(
                            ((pos - base) % n, xc, p[r] - 2 - xc)
                            for (r, xc), (pos, _) in cycle
                        ),
                        blocks=tuple(b for _, (_, b) in cycle[1:]) + (block,),
                    )
                if node not in dead:
                    path[node] = (j, block)
                    todo.append((j, _blocks_from(p, j, x)))
                    break
            else:
                todo.pop()
                dead.add(path.popitem()[0])
    return None


decompose_affine.cache_info = _decompose.cache_info  # type: ignore[attr-defined]
decompose_affine.cache_clear = _decompose.cache_clear  # type: ignore[attr-defined]


def _blocks_from(p: Pattern, j: int, x: int) -> Iterator[tuple[int, int, Pattern]]:
    """(d, x', block) for each quiddity cycle block = (y, p_(j+1), ...,
    p_(j+d-1), x') from the junction x + 2 + y at j to one at j + d, by d.

    The block sums to 3d - 3, which fixes x'.  Its shortfall s = y + x'
    may not pass y + max(p) - 2; s grows by 3*len(p) - sum(p) >= 1 over
    each period and drops by at most max(p) - 3 per entry, so no later d
    fits once s is (len(p) - 1) * (max(p) - 3) past that bound.
    """
    size, top = len(p), max(p)
    y = p[j % size] - 2 - x
    slack = (size - 1) * max(top - 3, 0)
    s, d = 0, 1
    while s - slack <= y + top - 2:
        v = p[(j + d) % size]
        if 0 <= s - y <= v - 2:
            block = (y, *(p[(j + t) % size] for t in range(1, d)), s - y)
            if is_quiddity(block):
                yield d, s - y, block
        s += 3 - v
        d += 1


def cor15_check(period: Iterable[int]) -> bool:
    """True iff the bi-infinite sequence with this period contains one of
    the fifteen patterns, in either orientation."""
    p = as_pattern(period)
    # a cyclic word of length >= 4 holds every window of the sequence
    # that is up to 4 long, the longest of the fifteen patterns
    word = p * -(-4 // len(p))
    return any(kernels.cyclic_contains(word, pat) for pat in FIFTEEN_PATTERNS)


# ---------------------------------------------------------------------------
# classification table


class TableRow(_Frozen):
    """One root-of-unity row of the classification table: its number
    ``row``, ``diagrams`` as exponent triples over a primitive ``n``-th
    root, the ``parameter`` description, and the ``period`` as printed."""

    __slots__ = ("row", "n", "diagrams", "parameter", "period")


KNOWN_ROWS: tuple[TableRow, ...] = (
    TableRow(1, 3, ((1, 1, 1),), "zeta in mu_3", (2,)),
    TableRow(2, 6, ((2, 5, 2),), "zeta in mu_6", (2,)),
    TableRow(3, 6, ((1, 4, 4),), "zeta in mu_6", (2,)),
    TableRow(4, 6, ((4, 1, 2), (2, 3, 2), (2, 1, 4)), "zeta in mu_6", (2,)),
    TableRow(5, 12, ((1, 10, 4),), "zeta in mu_12", (2,)),
    TableRow(6, 5, ((1, 4, 4),), "zeta in mu_5", (1, 4)),
    TableRow(7, 8, ((4, 4, 1),), "zeta in mu_8", (1, 4)),
    TableRow(8, 10, ((1, 9, 4),), "zeta in mu_10", (1, 4)),
    TableRow(9, 12, ((1, 10, 9), (9, 8, 4)), "zeta in mu_12", (2, 3, 1, 3)),
    TableRow(
        10,
        12,
        ((1, 8, 6), (6, 4, 3), (3, 2, 9), (9, 4, 6), (6, 8, 7)),
        "zeta in mu_12",
        (4, 1, 3, 3, 1),
    ),
    TableRow(11, 18, ((1, 12, 9), (9, 6, 4)), "zeta in mu_18", (6, 1, 3, 1)),
)

#: One-parameter families: (row, label, level, state, period, excluded
#: torsion orders).  ``state`` is the walk state (x1, x, x2, y1, y, y2) of
#: the row's triple at a generic q over mu_level (see ``charseq._State``):
#: row 13's -q is zeta_2 * q.  The exclusions are the orders of q where
#: the family degenerates.
GENERIC_ROWS: tuple[tuple[int, str, int, _State, Pattern, tuple[int, ...]], ...] = (
    (12, "q generic, q != +-1", 1, (0, 0, 0, 1, -2, 1), (2,), (1, 2)),
    (13, "q generic, q != +-1", 2, (0, 0, 1, 1, -2, 1), (2,), (1, 2)),
    (14, "q generic, q != +-1, q not in mu_3 or mu_4", 1, (0, 0, 0, 1, -4, 4),
     (1, 4), (1, 2, 3, 4)),
)


def _specialized(level: int, state: _State, k: int, u: int) -> tuple[int, int, int, int]:
    """The exact level n and exponents (n, e1, e, e2) of a generic walk
    state over mu_level at q = zeta_k^u: over L = lcm(level, k), zeta_level^x
    * q^y is zeta_L^(x*L/level + u*y*L/k), and n = L / the gcd of L and
    the three exponents."""
    big = lcm(level, k)
    a, b = big // level, u * big // k
    e = [(a * x + b * y) % big for x, y in zip(state[:3], state[3:])]
    g = gcd(big, *e)
    return (big // g, *(x // g for x in e))


def canonical_period_key(period: Iterable[int]) -> Pattern:
    """Rotation+reversal canonical form, for comparing cyclic periods."""
    p = tuple(period)
    return kernels.canonical_form(minimal_period(p)) if p else p


class ClassifiedOrbit(_Result):
    """One affine reflection orbit with its table match."""

    __slots__ = ("row_matched", "diagrams", "parameter", "period", "orbit_size", "level")
    _json_fields = ("row_matched", "diagrams", "parameter", "period", "orbit_size")


class ClassificationReport(_Result):
    """The sweep's affine orbits and table checks.  ``triples_checked``
    counts reflection orbits, each once, not triples: it is the sum of
    ``broken``, ``non_affine`` and the number of affine ``orbits``."""

    __slots__ = (
        "n_max", "orbits", "missing", "unmatched", "triples_checked", "broken", "non_affine"
    )

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unmatched


def _instance_orbits(n_max: int) -> Iterator[tuple[str, tuple[int, str, Pattern], tuple]]:
    """Instantiate every table row at every admissible root of unity.

    Yields (label, (row, parameter, period), keys) for each instance of
    exact level n <= ``n_max``; ``keys`` are the exponents (n, e1, e, e2)
    of the instance and of its label swap, as the sweep names triples.
    A root-of-unity row's first diagram has exact level ``row.n``.
    """
    instances = [
        (f"row {row.row} at zeta^{u}, mu_{row.n}", (row.row, row.parameter, row.period),
         (row.n, *(x * u % row.n for x in row.diagrams[0])))
        for row in KNOWN_ROWS if row.n <= n_max for u in _units(row.n)
    ] + [
        (f"row {rowno} specialized at mu_{k}, q=zeta^{u}",
         (rowno, f"q primitive {k}-th root (generic row {rowno})", period),
         _specialized(level, state, k, u))
        for rowno, _param, level, state, period, excluded in GENERIC_ROWS
        for k in range(3, n_max + 1) if k not in excluded for u in _units(k)
    ]
    for label, match, (n, e1, e, e2) in instances:
        if n <= n_max:
            yield label, match, ((n, e1, e, e2), (n, e2, e, e1))


#: The verdict of each sweep window met so far, by its ``bytes``: its
#: minimal period and that period's canonical key when the period is
#: affine, else None.  Affine-ness is a property of the cyclic period up
#: to rotation and reversal, so a window is decided once, whatever level
#: or class it comes from.
_verdicts: dict[bytes, Optional[tuple[Pattern, Pattern]]] = {}


def _verdict(window: bytes) -> Optional[tuple[Pattern, Pattern]]:
    """The minimal period of a sweep window and its canonical key (what
    ``canonical_period_key`` returns for it) when it is affine, else None.
    The key is the form ``decompose_affine`` decides, so it costs nothing
    more to keep it."""
    if window not in _verdicts:
        p = minimal_period(window)
        key = kernels.canonical_form(p)
        _verdicts[window] = (p, key) if decompose_affine(key) else None
    return _verdicts[window]


def classify_mu(n_max: int) -> ClassificationReport:
    """Sweep all root-of-unity triples with exponents in (Z/n)^3 for
    n <= n_max, keep the affine orbits, and match each one against the
    classification table.

    Every call folds the sweep records of levels 1..n_max
    (``charseq._swept``) into a fresh report.  An orbit class is affine
    when the period of its window is (``_verdict``), and then every one of
    its orbits u * O is listed (see ``charseq._units``), its members
    replayed from the key and window.  Raises if an affine period fails
    the fifteen-pattern condition (that would contradict the necessity
    direction: a bug or a counterexample), at the first class with such a
    period; the condition depends on the period up to rotation and
    reversal, so each call checks it once per canonical key.  A table
    instance whose orbit is broken or not affine is reported missing.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    # (level, sorted members, period, its canonical key) of each affine
    # orbit, in the order a sweep that walks every orbit meets them, and
    # the orbit of each member
    found: list[tuple[int, tuple[tuple[int, int, int], ...], Pattern, Pattern]] = []
    passes: set[Pattern] = set()  # the canonical keys that hold a fifteen-pattern
    broken = non_affine = 0
    for n, sweep in enumerate(_swept(n_max), 1):
        broken += sweep.broken
        affine = []
        for key, orbits, window, _ in sweep.periodic():
            verdict = _verdict(window)
            if verdict is None:
                non_affine += orbits
                continue
            p, canonical = verdict
            if canonical not in passes:
                if not cor15_check(p):
                    raise RuntimeError(
                        "affine period fails the fifteen-pattern condition: "
                        f"{p} from {Triple.from_exponents(n, *key)}"
                    )
                passes.add(canonical)
            members = list(_first_steps(n, key, window))
            conjugates = {
                tuple(sorted((u * s[0] % n, u * s[1] % n, u * s[2] % n) for s in members))
                for u in _units(n)
            }
            affine += ((c, *verdict) for c in conjugates)
        found += ((n, *orbit) for orbit in sorted(affine))
    where = {(n, *m): i for i, (n, members, *_) in enumerate(found) for m in members}
    # the first instance that lands in an orbit names its row
    expected: dict[int, tuple[int, str, Pattern]] = {}
    missing: list[str] = []
    for label, match, keys in _instance_orbits(n_max):
        indices = [where[k] for k in keys if k in where]
        for i in indices:
            expected.setdefault(i, match)
        if not indices:
            missing.append(label)
    printed: dict[Pattern, Pattern] = {}  # the canonical key of each row's printed period
    orbits: list[ClassifiedOrbit] = []
    for i, (level, members, period, canonical) in enumerate(found):
        match = expected.get(i)
        if match is not None:
            if match[2] not in printed:
                printed[match[2]] = canonical_period_key(match[2])
            if printed[match[2]] != canonical:
                match = None
        orbits.append(ClassifiedOrbit(  # by position: the keyword path costs more
            match[0] if match else None,
            sorted((Triple.from_exponents(level, *m) for m in members), key=Triple.sort_key),
            match[1] if match else f"mu_{level}",
            period,
            len(members),
            level,
        ))
    unmatched = [o for o in orbits if o.row_matched is None]
    orbits.sort(key=lambda o: (o.row_matched or 10_000, o.level, [t.sort_key() for t in o.diagrams]))
    return ClassificationReport(
        n_max, orbits, missing, unmatched, broken + non_affine + len(orbits), broken, non_affine
    )


class SpecializationResult(_Result):
    """One specialization of a one-parameter row: q = zeta_order^exponent,
    with ``status`` "match", "degenerate" or "broken"."""

    __slots__ = ("row", "order", "exponent", "status")

    def __init__(self, row: int, order: int, exponent: int, status: str):
        self.row = row
        self.order = order
        self.exponent = exponent
        self.status = status


class GenericRowsReport(_Result):
    """Symbolic verification of the three one-parameter families plus the
    exactness of their stated exclusions under specialization."""

    __slots__ = ("rows", "specializations", "violations")

    @property
    def ok(self) -> bool:
        return not self.violations


def check_generic_rows(max_order: int = 48) -> GenericRowsReport:
    """Walk the three one-parameter families symbolically, then specialize
    q to every primitive k-th root for k up to ``max_order``.

    A specialization must reproduce the generic period exactly when k is
    allowed, and must degenerate or break exactly when the parameter
    column excludes it (including q = +-1 for all three rows).

    One walk per (row, k), at q = zeta_k: zeta_k -> zeta_k^u fixes -1, so
    each specialization q = zeta_k^u is a Galois conjugate of it and has
    the same shape and period (see ``charseq._units``).  Raises before any
    walk when ``max_order`` is below 1: such a report would check nothing.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    rows: dict[int, dict] = {}
    specializations: list[SpecializationResult] = []
    violations: list[str] = []
    for rowno, param, level, state, period, excluded in GENERIC_ROWS:
        rep = walk(_triple(level, state))  # an infinite state space: walk's default budget
        found = rep.period
        dec = decompose_affine(found) if found else None
        rows[rowno] = {
            "parameter": param,
            "shape": rep.shape,
            "period": list(found),
            "affine": dec is not None,
            "ends": len(rep.ends),
        }
        if rep.shape != SHAPE_CHAIN:
            violations.append(f"row {rowno}: generic walk gave shape {rep.shape}")
        target = canonical_period_key(period)
        if canonical_period_key(found) != target:
            violations.append(f"row {rowno}: generic period {found} != expected {period}")
        if dec is None:
            violations.append(f"row {rowno}: generic period not affine")
        for k in range(1, max_order + 1):
            n, *x = _specialized(level, state, k, 1)
            shape, window, *_ = _walk(n, (*x, 0, 0, 0), 2 * n**3)  # resolves unless broken
            if shape == SHAPE_BROKEN:
                status = "broken"
            elif canonical_period_key(window) == target:
                status = "match"
            else:
                status = "degenerate"
            specializations += (SpecializationResult(rowno, k, u, status) for u in _units(k))
            allowed = k not in excluded
            if allowed != (status == "match"):
                why = f"should match but got {status}" if allowed else "is excluded but matches"
                violations += (f"row {rowno}: mu_{k} (exp {u}) {why}" for u in _units(k))
    return GenericRowsReport(rows, specializations, violations)


class Cor15Report(_Result):
    """The affine periods of the sweep to ``n_max`` and those of them that
    fail the fifteen-pattern condition."""

    __slots__ = ("n_max", "periods", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_cor15_on_classified(n_max: int) -> Cor15Report:
    """Every affine period found by the sweep of ``classify_mu`` passes the
    fifteen-pattern containment condition.  It reads the sweep records
    and window verdicts that ``classify_mu`` reads, so after
    ``classify_mu(n_max)`` it walks nothing, and a failing period is
    reported in ``failures``."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    windows = {w for sweep in _swept(n_max) for w in sweep.windows}
    periods = sorted(
        {verdict[1] for verdict in map(_verdict, windows) if verdict is not None},
        key=lambda p: (len(p), p),
    )
    failures = [p for p in periods if not cor15_check(p)]
    return Cor15Report(n_max=n_max, periods=periods, failures=failures)
