"""Characteristic sequences of scalar triples.

Two reflections act on a triple (q1, q, q2): each one needs the minimal
m-value of its outer scalar against the middle one, replaces the middle
by a twisted inverse and pushes a compensating factor onto the opposite
outer entry.  Alternating them in both directions yields a bi-infinite
integer sequence (the recorded m-values).  For root-of-unity triples the
state space is finite and the walk is reversible, so the sequence is
purely periodic unless some m-value is undefined (a broken triple).

Every reflection runs on integer exponents (``_reflect``): the walk, the
sweep over root-of-unity triples and the CLI's arrow diagram all step
through it, and ``Triple``s are built only for what they return.  The
sweep reads its m-values from a table built once per level
(``_m_table``) instead of the m-rule: its walks start with no q-exponent,
and a reflection maps the q-exponents linearly, so they stay zero.

A unit u mod n acts on the triples of level n by zeta -> zeta^u, i.e. by
multiplying all three exponents by u.  The walk commutes with this
action (see ``_units``), and the action is free, so each Galois class
has phi(n) members and one least member, its key.  ``_galois_keys``
yields the keys of a level and ``_galois_nf`` maps any triple to its key.
``_sweep`` walks each level once, from the keys that no earlier orbit has
met, and keeps a packed record per level (``_sweeps``): per Galois class
of periodic orbits, its key, its number of orbits, its window and ends.
``solve_triples`` and ``affine.classify_mu`` both read those records.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from .cycles import Pattern, _Frozen, _Result, as_pattern
from .scalars import Scalar, _m_rule


class Triple(_Frozen):
    """The state of the reflection walk: the scalars ``q1``, ``q``, ``q2``."""

    __slots__ = ("q1", "q", "q2")

    @classmethod
    def from_exponents(cls, n: int, e1: int, e: int, e2: int) -> "Triple":
        """Triple of powers of a primitive n-th root of unity."""
        return _triple(n, (e1, e, e2, 0, 0, 0))

    def swap(self) -> "Triple":
        """Exchange the outer labels."""
        return Triple(self.q2, self.q, self.q1)

    def level(self) -> int:
        """Least n with all three roots of unity in mu_n: the lcm of their
        orders."""
        return lcm(self.q1.n, self.q.n, self.q2.n)

    def sort_key(self):
        return (self.q1.sort_key(), self.q.sort_key(), self.q2.sort_key())

    def to_json(self) -> list[dict]:
        return [self.q1.to_json(), self.q.to_json(), self.q2.to_json()]

    def render(self, zeta_order: int | None = None) -> str:
        parts = ",".join(s.render(zeta_order) for s in (self.q1, self.q, self.q2))
        return f"({parts})"

    def __str__(self) -> str:
        return self.render()


@lru_cache(maxsize=256)
def _units(n: int) -> tuple[int, ...]:
    """The units of Z/n in [1, n), or (1,) for n = 1; u = 1 comes first.

    The sweep and the reconstruction rely on this: the walk from u*s has
    the shape, window, ends and window origin of the walk from s, and its
    orbit is u times that orbit, member by member.  Proof: ``_m_rule``
    reads (ai, a) only through gcd(ai, n) and the solutions of
    ai*m = -a (mod n), which a unit keeps, so every step records the same
    m; and each reflection is linear in the exponents, so it commutes with
    the multiplication by u.
    """
    return tuple(u for u in range(1, max(n, 2)) if gcd(u, n) == 1)


# ---------------------------------------------------------------------------
# Galois-least keys
#
# The units act freely on the triples of exact level n: u*s = s forces
# u = 1 when gcd(n, s) = 1.  So a Galois class has phi(n) members, and its
# lexicographically least one (its key) is found one coordinate at a time
# along the subgroups H_m = {u : u = 1 mod m}, m | n.  H_1 holds every unit,
# and the stabilizer of a value x inside H_m is H_lcm(m, n/gcd(x, n)):
#   e1 -> gcd(e1, n) (0 for e1 = 0) under H_1,
#   e  -> its least value under the stabilizer H_m of that first entry,
#   e2 -> its least value under the stabilizer of the first two.

#: One row per divisor m of n: entry x holds (the least of x*H_m mod n, a
#: unit of H_m that reaches it, the modulus of its stabilizer in H_m).
_GaloisTable = dict[int, tuple[tuple[int, int, int], ...]]


def _galois_table(n: int) -> _GaloisTable:
    """The tau(n) rows of n entries each that ``_galois_keys`` and
    ``_galois_nf`` read."""
    table = {}
    for m in (m for m in range(1, n + 1) if n % m == 0):
        h = [u for u in _units(n) if (u - 1) % m == 0]
        least = (min((x * u % n, u) for u in h) for x in range(n))
        table[m] = tuple((y, u, lcm(m, n // gcd(y, n))) for y, u in least)
    return table


def _galois_nf(n: int, table: _GaloisTable, s) -> tuple[int, int, int]:
    """The key of the Galois class of the triple (s[0], s[1], s[2]) of
    level n, in three table lookups."""
    a, u, m = table[1][s[0]]
    b, v, m = table[m][s[1] * u % n]
    return a, b, table[m][s[2] * u * v % n][0]


def _galois_keys(n: int, table: _GaloisTable) -> Iterator[tuple[int, int, int]]:
    """The key of every Galois class of the triples of exact level n, in
    lexicographic order: J_3(n)/phi(n) of them."""
    fixed = {m: [x for x, entry in enumerate(row) if entry[0] == x] for m, row in table.items()}
    for a in fixed[1]:
        ga, m1 = gcd(a, n), table[1][a][2]
        for b in fixed[m1]:
            gab, m2 = gcd(ga, b), table[m1][b][2]
            for c in fixed[m2]:
                if gab == 1 or gcd(gab, c) == 1:
                    yield a, b, c


SHAPE_CYCLE = "cycle"
SHAPE_CHAIN = "chain"
SHAPE_BROKEN = "broken"
SHAPE_UNRESOLVED = "unresolved(bound)"


class CharSeqReport(_Result):
    """Walk outcome.

    ``window`` holds recorded values with ``window[i]`` the value at
    sequence index ``window_origin + i``.  For a periodic walk the window
    is one full state period starting at index 0 and the bi-infinite
    sequence is the window repeated; ``period`` is then its minimal
    period in lex-least rotation.  ``ends`` lists sequence indices whose
    reflection fixed the triple.  ``orbit`` lists distinct triples in
    visit order.
    """

    __slots__ = (
        "shape", "period", "ends", "orbit", "window", "window_origin", "state_period", "steps"
    )
    _json_fields = ("shape", "period", "ends", "orbit", "window", "window_origin")

    def __init__(self, shape, period, ends, orbit, window, window_origin=0, state_period=None, steps=0):
        _Result.__init__(self, shape, period, ends, orbit, window, window_origin, state_period, steps)

    @property
    def ok(self) -> bool:
        return self.shape in (SHAPE_CYCLE, SHAPE_CHAIN)

    def end_offsets(self) -> frozenset[int]:
        """End positions reduced modulo the state period."""
        if not self.state_period:
            return frozenset(self.ends)
        return frozenset(e % self.state_period for e in self.ends)


def minimal_period(window: Iterable[int]) -> Pattern:
    """Minimal rotation-period of a full-period window, returned in its
    lexicographically least rotation."""
    w = tuple(window)
    if not w:
        raise ValueError("window must be nonempty")
    n = len(w)
    p = next(p for p in range(1, n + 1) if n % p == 0 and w[p:] == w[: n - p])  # p = n always fits
    doubled = w[:p] * 2
    return min(doubled[i : i + p] for i in range(p))


# A walk state at level n is (x1, x, x2, y1, y, y2): the triple
# (z^x1 q^y1, z^x q^y, z^x2 q^y2) with z = e^(2*pi*i/n) and x1, x, x2 in
# [0, n).  Each reflection is an integer matrix of determinant -1 on the
# exponents, so a walk never leaves the exact level of its start.
_State = tuple[int, int, int, int, int, int]


def _exponents(t: Triple, n: int) -> _State:
    """The walk state of ``t`` at a level ``n`` that ``t.level()`` divides:
    zeta_m^k is zeta_n^(k*n/m)."""
    s = (t.q1, t.q, t.q2)
    x = tuple(c.k * (n // c.n) for c in s)
    return x + tuple(c.qexp for c in s)


def _triple(n: int, s: _State) -> Triple:
    return Triple(
        Scalar(s[0], n, s[3]),
        Scalar(s[1], n, s[4]),
        Scalar(s[2], n, s[5]),
    )


def _reflected(n: int, s: _State, left: bool, m: int) -> _State:
    """The image of a walk state at level n under the left (``left``) or
    right reflection whose m-value is m."""
    x1, x, x2, y1, y, y2 = s
    if left:
        return (
            x1, (-2 * m * x1 - x) % n, (m * m * x1 + m * x + x2) % n,
            y1, -2 * m * y1 - y, m * m * y1 + m * y + y2,
        )
    return (
        (x1 + m * x + m * m * x2) % n, (-2 * m * x2 - x) % n, x2,
        y1 + m * y + m * m * y2, -2 * m * y2 - y, y2,
    )


def _m_table(n: int) -> list[int]:
    """The m-values of level n without q-exponents: entry ai * n + a is
    the m of ``_m_rule(n, ai, 0, a, 0)``, or -1 where it is undefined.

    Row ai by the rule itself: qi = z^ai has order d = n / gcd(ai, n), the
    power branch gives each m < d - 1 (m = 0 when d = 1, qi = 1) to the one
    a = -ai*m (mod n), and every other a gets the geometric d - 1, or none
    when d = 1.
    """
    table = []
    for ai in range(n):
        d = n // gcd(ai, n)
        row = [d - 1 if d > 1 else -1] * n
        for m in range(max(d - 1, 1)):
            row[-ai * m % n] = m
        table += row
    return table


def _reflect(
    n: int, s: _State, left: bool, table: Optional[list[int]] = None
) -> Optional[tuple[_State, int]]:
    """The left (``left``) or right reflection of a walk state at level n,
    with its m-value; None when the m-value is undefined (broken).  When
    the power condition fires at the minimum, the image is the state
    itself (an end of the sequence).

    With ``table``, the ``_m_table`` of level n, the m-value is read from
    it instead of ``_m_rule``; that is right only for a state without
    q-exponents, where ``_m_rule`` reads (ai, a) alone."""
    if table is None:
        mv = _m_rule(n, s[0], s[3], s[1], s[4]) if left else _m_rule(n, s[2], s[5], s[1], s[4])
        if mv is None:
            return None
        m = mv[0]
    else:
        m = table[s[0] * n + s[1]] if left else table[s[2] * n + s[1]]
        if m < 0:
            return None
    return _reflected(n, s, left, m), m


def _walk(n: int, start: _State, max_steps: int, table: Optional[list[int]] = None) -> tuple:
    """The walk of ``walk`` on integer states at level n, as the plain
    values (shape, window, window_origin, ends, orbit) of its report, the
    orbit as walk states in visit order.  A root-of-unity walk has at most
    2n^3 (state, side) pairs, so ``max_steps`` = 2n^3 always resolves it.

    The walk stops when it is back at (start, left), for each reflection
    is an involution that records the same m-value at a state and at its
    image.  The left one keeps (x1, y1), which ``_m_rule`` reads as qi,
    maps (x, y) to (x', y') = (-2m*x1 - x, -2m*y1 - y) and x2, y2 so that
    m maps them back.  With y1 != 0, m = -y/y1 gives y' = y and
    m*x1 + x' = -(m*x1 + x), so the rule gives m again.  With y1 = 0,
    y' = -y and k -> 2m - k maps the solutions of x1*k = -x (mod n) onto
    those of x1*k = -x'; at both, their least one mod d = ord(x1) is m,
    or none on the geometric branch (m = d - 1).  The right one is the
    mirror.  So the step (s, side) -> (image, other side) is injective,
    and the first pair the walk meets twice is (start, left): had it met
    another one twice first, the pairs one step before the two visits
    would be equal.  Each reflection maps (y1, y, y2) by an integer
    matrix of determinant -1, so every state of the orbit has a
    q-exponent exactly when ``start`` has, and a resolved walk with ends
    is then a chain.

    The backward walk of a broken start has its own loop and never stops
    at the start: it passes through (start, left) when the right
    reflection fixes the start, and the values before that belong to the
    sequence too.

    Both loops read m-values from ``table``, the ``_m_table`` of level n,
    when one is given and ``start`` has no q-exponent: by the determinant
    argument above every state of the walk then has none either.  A
    start with a q-exponent ignores the table and applies the rule.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if any(start[3:]):
        table = None
    orbit, window, ends, back = {start: None}, [], [], []  # orbit: an ordered set
    s, left, shape = start, True, SHAPE_UNRESOLVED
    for step in range(max_steps):
        res = _reflect(n, s, left, table)
        if res is None:
            shape = SHAPE_BROKEN
            break
        nxt, c = res
        window.append(c)
        if nxt == s:
            ends.append(step)
        s, left = nxt, not left
        if left and s == start:
            shape = SHAPE_CHAIN if ends and any(start[3:]) else SHAPE_CYCLE
            break
        orbit[s] = None
    if shape == SHAPE_BROKEN:
        s, left = start, False
        for step in range(max_steps):
            res = _reflect(n, s, left, table)
            if res is None:
                break
            prev, c = res
            back.append(c)
            if prev == s:
                ends.insert(0, -step - 1)
            orbit[prev] = None
            s, left = prev, not left
    return shape, back[::-1] + window, -len(back), ends, list(orbit)


def walk(start: Triple, max_steps: int = 10000) -> CharSeqReport:
    """Run the alternating reflection walk from ``start``.

    Forward steps apply the left reflection first, then alternate; the
    recorded value of step i is the sequence entry c_i.  The walk runs
    through fixed points (recording them as ends).  It stops when it is
    back at its start on the left side, which makes the window one exact
    period (see ``_walk``).  An undefined m-value stops the walk with
    shape "broken", in which case backward values (c_-1, c_-2, ...) are
    collected as well.  ``max_steps`` counts reflections: at most that
    many in each direction, and a walk not back at its start after them
    is "unresolved(bound)".

    The walk runs on integer exponents at the level of ``start``.
    """
    n = start.level()
    shape, window, origin, ends, orbit = _walk(n, _exponents(start, n), max_steps)
    periodic = shape in (SHAPE_CYCLE, SHAPE_CHAIN)
    return CharSeqReport(
        shape, minimal_period(window) if periodic else (), ends, [_triple(n, s) for s in orbit],
        window, origin, len(window) if periodic else None, len(window) + origin,
    )


# ---------------------------------------------------------------------------
# one sweep per level


#: A Galois class of periodic reflection orbits at one level: its key (the
#: Galois-least triple the sweep walked), its number of distinct orbits
#: u * O, the m-values of one state period of the walk from the key (their
#: number is the state period) and the end positions of that walk.
_OrbitClass = tuple[tuple[int, int, int], int, bytes, tuple[int, ...]]


class _Sweep(_Frozen):
    """One level's walks: its number of broken reflection orbits, and its
    Galois classes of periodic ones by increasing key, packed.

    ``classes`` holds four bytes per class, the key (e1, e, e2) and the
    number of orbits; ``windows`` and ``ends`` hold the rest, one entry per
    class.  A key entry, an m-value and phi(n) at level n are all below n,
    so levels up to 256 fit bytes.
    """

    __slots__ = ("broken", "classes", "windows", "ends")

    def periodic(self) -> Iterator[_OrbitClass]:
        for i, (window, ends) in enumerate(zip(self.windows, self.ends)):
            e1, e, e2, orbits = self.classes[4 * i : 4 * i + 4]
            yield (e1, e, e2), orbits, window, ends


#: ``_sweep``'s records by level n: a reflection orbit never leaves the
#: exact level of its start, so the record of n depends on n alone.
_sweeps: dict[int, _Sweep] = {}


def _sweep(n: int) -> _Sweep:
    """Walk one reflection orbit of each Galois class of orbits at level n.

    Keys come by increasing order, and one is walked unless an orbit walked
    before met its Galois class: the walks of a sweep over every triple
    that skips the members of every orbit it has seen and of their
    conjugates.  A unit u maps the orbit O walked from a key onto the
    orbit of u * key (see ``_units``), so only the classes of O's own
    members are marked, and the class holds phi(n) / #{members of O in the
    key's class} distinct orbits.

    Every walk starts at a key with no q-exponent, so it reads its
    m-values from the level's ``_m_table``, built once here, and no walk
    of the sweep applies ``_m_rule``.
    """
    table, m_table = _galois_table(n), _m_table(n)
    phi = len(_units(n))
    decided: set[tuple[int, int, int]] = set()
    broken = 0
    classes, windows, ends = bytearray(), [], []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one copy of equal ends
    for key in _galois_keys(n, table):
        if key in decided:
            continue
        shape, window, _, at, orbit = _walk(n, key + (0, 0, 0), 2 * n**3, m_table)
        met = [_galois_nf(n, table, s) for s in orbit]  # one key per member
        decided.update(met)
        orbits = phi // met.count(key)
        if shape == SHAPE_BROKEN:
            broken += orbits
        else:
            classes += bytes((*key, orbits))
            windows.append(bytes(window))
            at = tuple(at)
            ends.append(shared.setdefault(at, at))
    return _Sweep(broken, bytes(classes), tuple(windows), tuple(ends))


def _check_sweep_bound(n_max: int) -> None:
    """Refuse a bound above 256, the last level whose record fits bytes
    (see ``_Sweep``)."""
    if n_max > 256:
        raise ValueError(f"bound {n_max} is above 256, the largest level the sweep records hold")


def _swept(n_max: int) -> list[_Sweep]:
    """The records of levels 1..n_max, sweeping the levels not yet swept.
    Raises before any walk when n_max is above 256."""
    _check_sweep_bound(n_max)
    for n in range(len(_sweeps) + 1, n_max + 1):
        _sweeps[n] = _sweep(n)
    return [_sweeps[n] for n in range(1, n_max + 1)]


def _first_steps(n: int, key: tuple[int, int, int], window: bytes) -> dict[tuple[int, int, int], int]:
    """The members of the orbit walked from ``key``, whose m-values are
    ``window``, in visit order, each with the step at which that walk first
    meets it.  It replays the m-values through ``_reflected``: no m-rule,
    no walk."""
    s, steps = key + (0, 0, 0), {}
    for j, m in enumerate(window):
        steps.setdefault(s[:3], j)
        s = _reflected(n, s, j % 2 == 0, m)
    return steps


class SolveMatch(_Frozen):
    """One alignment of the searched window inside a triple's sequence:
    the ``triple``, the ``offset`` and the ``end_offsets``."""

    __slots__ = ("triple", "offset", "end_offsets")


class SolveReport(_Result):
    """Triples whose characteristic sequence contains the window.

    ``ambiguous`` is set when matches disagree about which window
    positions sit on ends, i.e. the window does not pin down the local
    shape of the sequence."""

    __slots__ = ("window", "bound", "matches", "triples", "ambiguous")
    _json_fields = ("window", "bound", "ambiguous", "matches")


def _hits(window: bytes, target: bytes, ends: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Offsets o < len(window) from which the periodic sequence with one
    period ``window`` reads ``target``, each with the target positions that
    sit on ``ends``."""
    length, k = len(window), len(target)
    tiled = window * -(-(length + k - 1) // length)
    out = []
    o = tiled.find(target)
    while 0 <= o < length:
        out.append((o, tuple(i for i in range(k) if (o + i) % length in ends)))
        o = tiled.find(target, o + 1)
    return out


def solve_triples(window: Iterable[int], modulus_bound: int) -> SolveReport:
    """Exhaustive reconstruction: all root-of-unity triples with exponents
    in (Z/n)^3 for n <= modulus_bound whose characteristic sequence
    contains the window at some alignment.

    Windows adjacent to (or on top of) ends match too; when different
    matches place ends at different window positions, the result is
    flagged ambiguous.

    It reads the level records of ``_swept``, shared with
    ``affine.classify_mu``, and matches the window once per orbit class,
    forwards and reversed, against the window of the walk from its key.
    The walk from a member first met at step j reads that window from j on
    when j is even, with ends e - j; when j is odd it reads it backwards
    from j - 1, c_(j-1-i), with ends j - 1 - e (the reflections are
    involutions).  Each unit conjugate of a member has the same hits (see
    ``_units``).
    """
    target = as_pattern(window)
    if len(target) < 3:
        raise ValueError("window must have length >= 3")
    if modulus_bound < 1:
        raise ValueError("modulus_bound must be >= 1")
    _check_sweep_bound(modulus_bound)
    if max(target) >= modulus_bound:
        # an m-value at level n is below n, so no level up to the bound
        # has a sequence with such an entry; past here every entry is
        # below the bound, at most 256, so it fits a byte
        return SolveReport(window=target, bound=modulus_bound, matches=[], triples=[], ambiguous=False)
    k, pattern, reversed_pattern = len(target), bytes(target), bytes(target[::-1])
    matches: list[SolveMatch] = []
    for n, level in enumerate(_swept(modulus_bound), 1):
        found: dict[tuple[int, int, int], list[tuple[int, tuple[int, ...]]]] = {}
        for key, _, w, ends in level.periodic():
            forward = _hits(w, pattern, ends)
            backward = [
                (r, tuple(k - 1 - i for i in reversed(on_ends)))
                for r, on_ends in _hits(w, reversed_pattern, ends)
            ]
            if not forward and not backward:
                continue
            for (x1, x, x2), j in _first_steps(n, key, w).items():
                if j % 2 == 0:
                    hits = [((o - j) % len(w), e) for o, e in forward]
                else:
                    hits = [((j - k - r) % len(w), e) for r, e in backward]
                if hits:
                    for u in _units(n):
                        found[u * x1 % n, u * x % n, u * x2 % n] = hits
        for exponents, hits in found.items():
            t = Triple.from_exponents(n, *exponents)
            matches.extend(SolveMatch(t, off, end_offsets) for off, end_offsets in hits)
    matches.sort(key=lambda m: (m.triple.sort_key(), m.offset))
    triples = list(dict.fromkeys(m.triple for m in matches))
    ambiguous = len({m.end_offsets for m in matches}) > 1
    return SolveReport(
        window=target,
        bound=modulus_bound,
        matches=matches,
        triples=triples,
        ambiguous=ambiguous,
    )
