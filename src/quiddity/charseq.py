"""Characteristic sequences of scalar triples.

Two reflections act on a triple (q1, q, q2): each one needs the minimal
m-value of its outer scalar against the middle one, replaces the middle
by a twisted inverse and pushes a compensating factor onto the opposite
outer entry.  Alternating them in both directions yields a bi-infinite
integer sequence (the recorded m-values).  For root-of-unity triples the
state space is finite and the walk is reversible, so the sequence is
purely periodic unless some m-value is undefined (a broken triple).

``sigma1``/``sigma2`` act on ``Scalar`` triples one step at a time.  The
walk and the sweeps over root-of-unity triples run on integer exponents
instead (``_walk``): ``Triple``s are built only for what they return.

A unit u mod n acts on the triples of level n by zeta -> zeta^u, i.e. by
multiplying all three exponents by u.  The walk commutes with this
action, so the sweeps walk one triple of each Galois class (the classes
have phi(n) members each) and hand the result to its conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from .cycles import Pattern
from .scalars import Scalar, _m_rule, m_value


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


def _level_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """Exponents (e1, e, e2) in (Z/n)^3 with gcd(n, e1, e, e2) == 1, i.e. of
    every triple of exact level n, lexicographically: J_3(n) of them."""
    for e1 in range(n):
        for e in range(n):
            for e2 in range(n):
                if gcd(n, e1, e, e2) == 1:
                    yield e1, e, e2


def _root_of_unity_triples(n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """Exponents (n, e1, e, e2) of every triple of exact level n <= n_max,
    once each, by increasing n (see ``_level_triples``)."""
    return ((n, *e) for n in range(1, n_max + 1) for e in _level_triples(n))


@lru_cache(maxsize=256)
def _units(n: int) -> tuple[int, ...]:
    """The units of Z/n in [1, n), or (1,) for n = 1; u = 1 comes first.

    The sweeps rely on this: the walk from u*s has the shape, window, ends
    and window origin of the walk from s, and its orbit is u times that
    orbit, member by member.  Proof: ``_m_rule`` reads (ai, a) only
    through gcd(ai, n) and the solutions of ai*m = -a (mod n), which a
    unit keeps, so every step records the same m; and each reflection is
    linear in the exponents, so it commutes with the multiplication by u.
    """
    return tuple(u for u in range(1, max(n, 2)) if gcd(u, n) == 1)


def sigma1(t: Triple) -> Optional[tuple[Triple, int]]:
    """Left reflection; None when the m-value is undefined (broken).

    Returns the image triple and the recorded value c = m1.  When the
    power condition fires at the minimum, the image equals the input (an
    end of the sequence).
    """
    mv = m_value(t.q1, t.q)
    if mv is None:
        return None
    m = mv.m
    return (
        Triple(
            t.q1,
            (t.q1 ** (-2 * m)) * t.q.inverse(),
            (t.q1 ** (m * m)) * (t.q ** m) * t.q2,
        ),
        m,
    )


def sigma2(t: Triple) -> Optional[tuple[Triple, int]]:
    """Right reflection, mirror of ``sigma1``."""
    mv = m_value(t.q2, t.q)
    if mv is None:
        return None
    m = mv.m
    return (
        Triple(
            t.q1 * (t.q ** m) * (t.q2 ** (m * m)),
            (t.q2 ** (-2 * m)) * t.q.inverse(),
            t.q2,
        ),
        m,
    )


SHAPE_CYCLE = "cycle"
SHAPE_CHAIN = "chain"
SHAPE_BROKEN = "broken"
SHAPE_UNRESOLVED = "unresolved(bound)"


@dataclass
class CharSeqReport:
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

    @property
    def ok(self) -> bool:
        return self.shape in (SHAPE_CYCLE, SHAPE_CHAIN)

    def end_offsets(self) -> frozenset[int]:
        """End positions reduced modulo the state period."""
        if not self.state_period:
            return frozenset(self.ends)
        return frozenset(e % self.state_period for e in self.ends)

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "period": list(self.period),
            "ends": list(self.ends),
            "orbit": [t.to_json() for t in self.orbit],
            "window": list(self.window),
            "window_origin": self.window_origin,
        }


def minimal_period(window: Iterable[int]) -> Pattern:
    """Minimal rotation-period of a full-period window, returned in its
    lexicographically least rotation."""
    w = tuple(window)
    if not w:
        raise ValueError("window must be nonempty")
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and w[p:] == w[: n - p]:
            core = w[:p]
            doubled = core + core
            return min(doubled[i : i + p] for i in range(p))
    raise AssertionError("unreachable: every window is n-periodic")


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


def _reflect(n: int, s: _State, left: bool) -> Optional[tuple[_State, int]]:
    """``sigma1`` (``left``) or ``sigma2`` on a walk state at level n."""
    x1, x, x2, y1, y, y2 = s
    if left:
        mv = _m_rule(n, x1, y1, x, y)
        if mv is None:
            return None
        m = mv[0]
        return (
            x1, (-2 * m * x1 - x) % n, (m * m * x1 + m * x + x2) % n,
            y1, -2 * m * y1 - y, m * m * y1 + m * y + y2,
        ), m
    mv = _m_rule(n, x2, y2, x, y)
    if mv is None:
        return None
    m = mv[0]
    return (
        (x1 + m * x + m * m * x2) % n, (-2 * m * x2 - x) % n, x2,
        y1 + m * y + m * m * y2, -2 * m * y2 - y, y2,
    ), m


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


@dataclass(frozen=True, slots=True)
class SolveMatch:
    """One alignment of the searched window inside a triple's sequence."""

    triple: Triple
    offset: int
    end_offsets: tuple[int, ...]


@dataclass
class SolveReport:
    """Triples whose characteristic sequence contains the window.

    ``ambiguous`` is set when matches disagree about which window
    positions sit on ends, i.e. the window does not pin down the local
    shape of the sequence."""

    window: Pattern
    bound: int
    matches: list[SolveMatch]
    triples: list[Triple]
    ambiguous: bool

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "bound": self.bound,
            "ambiguous": self.ambiguous,
            "matches": [
                {
                    "triple": m.triple.to_json(),
                    "offset": m.offset,
                    "end_offsets": list(m.end_offsets),
                }
                for m in self.matches
            ],
        }


def _window_matches(report: CharSeqReport, window: Pattern) -> list[tuple[int, tuple[int, ...]]]:
    """Alignments of ``window`` in the bi-infinite periodic sequence."""
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


def solve_triples(window: Iterable[int], modulus_bound: int) -> SolveReport:
    """Exhaustive reconstruction: all root-of-unity triples with exponents
    in (Z/n)^3 for n <= modulus_bound whose characteristic sequence
    contains the window at some alignment.

    Windows adjacent to (or on top of) ends match too; when different
    matches place ends at different window positions, the result is
    flagged ambiguous.

    Only the least triple of each Galois class is walked: its conjugates
    have the same sequence and ends (see ``_units``), hence the same
    alignments and end offsets.
    """
    target = tuple(window)
    if len(target) < 3:
        raise ValueError("window must have length >= 3")
    if modulus_bound < 1:
        raise ValueError("modulus_bound must be >= 1")
    matches: list[SolveMatch] = []
    for n, e1, e, e2 in _root_of_unity_triples(modulus_bound):
        conjugates = [(u * e1 % n, u * e % n, u * e2 % n) for u in _units(n)]
        if min(conjugates) != conjugates[0]:
            continue
        report = _walk(n, (e1, e, e2, 0, 0, 0), 2 * n**3)
        if report.shape != SHAPE_CYCLE:  # broken
            continue
        hits = _window_matches(report, target)
        if hits:
            for c in conjugates:
                t = Triple.from_exponents(n, *c)
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
