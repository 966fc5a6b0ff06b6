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
through it, and ``Triple``s are built only for what they return.

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

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from .cycles import Pattern, _Result, as_pattern
from .scalars import Scalar, _m_rule


@dataclass(frozen=True, slots=True)
class Triple:
    """The state of the reflection walk."""

    q1: Scalar
    q: Scalar
    q2: Scalar

    @classmethod
    def from_exponents(cls, n: int, e1: int, e: int, e2: int) -> "Triple":
        """Triple of powers of a primitive n-th root of unity."""
        return cls(
            Scalar.root_of_unity(n, e1),
            Scalar.root_of_unity(n, e),
            Scalar.root_of_unity(n, e2),
        )

    def swap(self) -> "Triple":
        """Exchange the outer labels."""
        return Triple(self.q2, self.q, self.q1)

    def level(self) -> int:
        """Least n with all three roots of unity in mu_n: the lcm of their
        orders."""
        return lcm(self.q1.n, self.q.n, self.q2.n)

    @property
    def is_root_of_unity(self) -> bool:
        return (
            self.q1.is_root_of_unity
            and self.q.is_root_of_unity
            and self.q2.is_root_of_unity
        )

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


@dataclass
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

    shape: str
    period: Pattern
    ends: list[int]
    orbit: list[Triple]
    window: list[int]
    window_origin: int = 0
    state_period: Optional[int] = None
    steps: int = 0

    _json_fields = ("shape", "period", "ends", "orbit", "window", "window_origin")

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


def _reflect(n: int, s: _State, left: bool) -> Optional[tuple[_State, int]]:
    """The left (``left``) or right reflection of a walk state at level n,
    with its m-value; None when the m-value is undefined (broken).  When
    the power condition fires at the minimum, the image is the state
    itself (an end of the sequence)."""
    mv = _m_rule(n, s[0], s[3], s[1], s[4]) if left else _m_rule(n, s[2], s[5], s[1], s[4])
    if mv is None:
        return None
    return _reflected(n, s, left, mv[0]), mv[0]


def _walk(n: int, start: _State, max_steps: int) -> CharSeqReport:
    """The walk of ``walk`` on integer states at level n; the report's
    ``orbit`` lists walk states, not ``Triple``s, and its ``period`` is
    left empty: a caller that reads it takes ``minimal_period`` of the
    window of a resolved walk.  A root-of-unity walk has at most 2n^3
    (state, side) pairs, so ``max_steps`` = 2n^3 always resolves it."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    seen: dict[tuple[_State, bool], int] = {}
    orbit: dict[_State, None] = {}  # insertion-ordered set
    window: list[int] = []
    ends: list[int] = []
    s, left = start, True
    broken = False
    resolved = False
    step = 0
    while step <= max_steps:
        key = (s, left)
        if key in seen:
            if seen[key] != 0:
                raise RuntimeError(
                    "walk re-entered a non-initial state; reversibility violated"
                )
            resolved = True
            break
        seen[key] = step
        orbit[s] = None
        res = _reflect(n, s, left)
        if res is None:
            broken = True
            break
        nxt, c = res
        window.append(c)
        if nxt == s:
            ends.append(step)
        s, left = nxt, not left
        step += 1

    if broken:
        back: list[int] = []
        s, left = start, False
        for bstep in range(max_steps):
            res = _reflect(n, s, left)
            if res is None:
                break
            prev, c = res
            back.append(c)
            if prev == s:
                ends.append(-bstep - 1)
            orbit[prev] = None
            s, left = prev, not left
        return CharSeqReport(
            shape=SHAPE_BROKEN,
            period=(),
            ends=sorted(ends),
            orbit=list(orbit),
            window=back[::-1] + window,
            window_origin=-len(back),
            steps=step,
        )

    if not resolved:
        return CharSeqReport(
            shape=SHAPE_UNRESOLVED,
            period=(),
            ends=ends,
            orbit=list(orbit),
            window=window,
            window_origin=0,
            steps=step,
        )

    generic = any(st[3] or st[4] or st[5] for st in orbit)
    return CharSeqReport(
        shape=SHAPE_CHAIN if (generic and ends) else SHAPE_CYCLE,
        period=(),
        ends=ends,
        orbit=list(orbit),
        window=window,
        window_origin=0,
        state_period=len(window),
        steps=step,
    )


def walk(start: Triple, max_steps: int = 10000) -> CharSeqReport:
    """Run the alternating reflection walk from ``start``.

    Forward steps apply the left reflection first, then alternate; the
    recorded value of step i is the sequence entry c_i.  The walk runs
    through fixed points (recording them as ends).  It stops at the first
    repeated (triple, parity) state, which for a reversible walk is the
    initial state, making the window one exact period.  An undefined
    m-value stops the walk with shape "broken", in which case backward
    values (c_-1, c_-2, ...) are collected as well.

    The walk runs on integer exponents at the level of ``start``.
    """
    n = start.level()
    report = _walk(n, _exponents(start, n), max_steps)
    report.orbit = [_triple(n, s) for s in report.orbit]
    if report.state_period:
        report.period = minimal_period(report.window)
    return report


# ---------------------------------------------------------------------------
# one sweep per level


#: A Galois class of periodic reflection orbits at one level: its key (the
#: Galois-least triple the sweep walked), its number of distinct orbits
#: u * O, the m-values of one state period of the walk from the key (their
#: number is the state period) and the end positions of that walk.
_OrbitClass = tuple[tuple[int, int, int], int, bytes, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class _Sweep:
    """One level's walks: its number of broken reflection orbits, and its
    Galois classes of periodic ones by increasing key, packed.

    ``classes`` holds four bytes per class, the key (e1, e, e2) and the
    number of orbits; ``windows`` and ``ends`` hold the rest, one entry per
    class.  A key entry, an m-value and phi(n) at level n are all below n,
    so levels up to 256 fit bytes.
    """

    broken: int
    classes: bytes
    windows: tuple[bytes, ...]
    ends: tuple[tuple[int, ...], ...]

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
    """
    table = _galois_table(n)
    phi = len(_units(n))
    decided: set[tuple[int, int, int]] = set()
    broken = 0
    classes, windows, ends = bytearray(), [], []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one copy of equal ends
    for key in _galois_keys(n, table):
        if key in decided:
            continue
        report = _walk(n, key + (0, 0, 0), 2 * n**3)
        met = [_galois_nf(n, table, s) for s in report.orbit]  # one key per member
        decided.update(met)
        orbits = phi // met.count(key)
        if report.shape == SHAPE_BROKEN:
            broken += orbits
        else:
            classes += bytes((*key, orbits))
            windows.append(bytes(report.window))
            at = tuple(report.ends)
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


@dataclass(frozen=True, slots=True)
class SolveMatch(_Result):
    """One alignment of the searched window inside a triple's sequence."""

    triple: Triple
    offset: int
    end_offsets: tuple[int, ...]


@dataclass
class SolveReport(_Result):
    """Triples whose characteristic sequence contains the window.

    ``ambiguous`` is set when matches disagree about which window
    positions sit on ends, i.e. the window does not pin down the local
    shape of the sequence."""

    window: Pattern
    bound: int
    matches: list[SolveMatch]
    triples: list[Triple]
    ambiguous: bool

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
