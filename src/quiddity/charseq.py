"""Characteristic sequences of scalar triples.

Two reflections act on a triple (q1, q, q2): each one needs the minimal
m-value of its outer scalar against the middle one, replaces the middle
by a twisted inverse and pushes a compensating factor onto the opposite
outer entry.  Alternating them in both directions yields a bi-infinite
integer sequence (the recorded m-values).  For root-of-unity triples the
state space is finite and the walk is reversible, so the sequence is
purely periodic unless some m-value is undefined (a broken triple).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Iterator, Optional

from .cycles import Pattern
from .scalars import Scalar, m_value


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
        """Least n with all torsion parts in (1/n)Z."""
        return lcm(
            self.q1.torsion.denominator,
            self.q.torsion.denominator,
            self.q2.torsion.denominator,
        )

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


def _root_of_unity_triples(n_max: int) -> Iterator[Triple]:
    """Every triple of n-th roots of unity with n <= n_max, once each.

    A triple is yielded at its exact level n >= 1, i.e. with exponents
    (e1, e, e2) in (Z/n)^3 and gcd(n, e1, e, e2) == 1, by increasing n and
    then lexicographically; level n holds Jordan's totient J_3(n) triples.
    """
    for n in range(1, n_max + 1):
        for e1 in range(n):
            for e in range(n):
                for e2 in range(n):
                    if gcd(n, e1, e, e2) == 1:
                        yield Triple.from_exponents(n, e1, e, e2)


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
        if n % p == 0 and all(w[i] == w[i % p] for i in range(n)):
            core = w[:p]
            doubled = core + core
            return min(doubled[i : i + p] for i in range(p))
    raise AssertionError("unreachable: every window is n-periodic")


def walk(start: Triple, max_steps: int = 10000) -> CharSeqReport:
    """Run the alternating reflection walk from ``start``.

    Forward steps apply the left reflection first, then alternate; the
    recorded value of step i is the sequence entry c_i.  The walk runs
    through fixed points (recording them as ends).  It stops at the first
    repeated (triple, parity) state, which for a reversible walk is the
    initial state, making the window one exact period.  An undefined
    m-value stops the walk with shape "broken", in which case backward
    values (c_-1, c_-2, ...) are collected as well.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    seen: dict[tuple[Triple, int], int] = {}
    orbit: list[Triple] = []
    orbit_set: set[Triple] = set()
    window: list[int] = []
    ends: list[int] = []
    state = (start, 1)
    broken = False
    resolved = False
    step = 0
    while step <= max_steps:
        if state in seen:
            if seen[state] != 0:
                raise RuntimeError(
                    "walk re-entered a non-initial state; reversibility violated"
                )
            resolved = True
            break
        seen[state] = step
        triple, parity = state
        if triple not in orbit_set:
            orbit_set.add(triple)
            orbit.append(triple)
        res = (sigma1 if parity == 1 else sigma2)(triple)
        if res is None:
            broken = True
            break
        nxt, c = res
        window.append(c)
        if nxt == triple:
            ends.append(step)
        state = (nxt, 2 if parity == 1 else 1)
        step += 1

    if broken:
        back: list[int] = []
        btriple, bparity = start, 2
        for bstep in range(max_steps):
            res = (sigma1 if bparity == 1 else sigma2)(btriple)
            if res is None:
                break
            prev, c = res
            back.append(c)
            if prev == btriple:
                ends.append(-bstep - 1)
            if prev not in orbit_set:
                orbit_set.add(prev)
                orbit.append(prev)
            btriple, bparity = prev, 1 if bparity == 2 else 2
        return CharSeqReport(
            shape=SHAPE_BROKEN,
            period=(),
            ends=sorted(ends),
            orbit=orbit,
            window=back[::-1] + window,
            window_origin=-len(back),
            steps=step,
        )

    if not resolved:
        return CharSeqReport(
            shape=SHAPE_UNRESOLVED,
            period=(),
            ends=ends,
            orbit=orbit,
            window=window,
            window_origin=0,
            steps=step,
        )

    generic = any(
        s.qexp != 0 for t in orbit for s in (t.q1, t.q, t.q2)
    )
    shape = SHAPE_CHAIN if (generic and ends) else SHAPE_CYCLE
    return CharSeqReport(
        shape=shape,
        period=minimal_period(window),
        ends=ends,
        orbit=orbit,
        window=window,
        window_origin=0,
        state_period=len(window),
        steps=step,
    )


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


def solve_triples(
    window: Iterable[int], modulus_bound: int, max_steps: int = 10000
) -> SolveReport:
    """Exhaustive reconstruction: all root-of-unity triples with exponents
    in (Z/n)^3 for n <= modulus_bound whose characteristic sequence
    contains the window at some alignment.

    Windows adjacent to (or on top of) ends match too; when different
    matches place ends at different window positions, the result is
    flagged ambiguous.
    """
    target = tuple(window)
    if len(target) < 3:
        raise ValueError("window must have length >= 3")
    matches: list[SolveMatch] = []
    for t in _root_of_unity_triples(modulus_bound):
        report = walk(t, max_steps=max_steps)
        if report.shape != SHAPE_CYCLE:
            continue
        for off, end_offsets in _window_matches(report, target):
            matches.append(SolveMatch(t, off, end_offsets))
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
