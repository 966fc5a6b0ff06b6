"""Quiddity cycles up to dihedral equivalence.

A quiddity cycle is the cyclic sequence of triangle counts at the
vertices of a triangulated convex polygon.  The set of all of them is
generated from the base cycle (0,0) by ear insertion: put a 1 between two
cyclically adjacent entries and increment both.  This module provides the
canonical form under rotation/reversal, the 2x2 integer matrix invariant,
a membership test by ear reduction, exhaustive enumeration per length,
and the single-pattern containment tests, also behind ``cor15_check``.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Iterable, Iterator, NamedTuple

from . import kernels

Pattern = tuple[int, ...]

#: Largest cycle length that ``enumerate_cycles`` and the cover checks
#: accept.  The class counts grow by about x3.4 per length, to about
#: 1.9e9 classes at 24, so this bound guards time and memory; it sits far
#: below 257, the longest cycle whose entries (up to n - 2) fit the
#: byte strings of ``kernels.next_level``.
DEFAULT_MAX_LENGTH = 24


def as_pattern(entries: Iterable[int]) -> Pattern:
    """Validate and freeze a finite sequence of non-negative integers."""
    try:
        seq = tuple(entries)
    except TypeError:
        raise ValueError(f"expected a sequence of integers, got {entries!r}") from None
    if len(seq) < 1:
        raise ValueError("pattern must have length >= 1")
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"pattern entries must be integers >= 0, got {e!r}")
    return seq


class _Result:
    """Base of the library's result dataclasses.

    ``to_json`` writes the fields in declaration order, or the names in
    ``_json_fields`` where a class sets them, as a fresh document that
    shares nothing with the result: a list or tuple becomes a new list, a
    dict a new dict whose tuple keys are joined with commas, and any
    other value that is not a plain int, string or None uses its own
    ``to_json``."""

    __slots__ = ()
    _json_fields: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in _json_names(type(self))}


@cache
def _json_names(cls: type) -> tuple[str, ...]:
    """The names ``_Result.to_json`` writes for ``cls``, read once."""
    return cls._json_fields or tuple(f.name for f in fields(cls))


_PLAIN = frozenset({int, str, bool, type(None)})


def _json_value(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _PLAIN else _json_value(v) for v in value]
    if isinstance(value, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else k: _json_value(v)
            for k, v in value.items()
        }
    return value.to_json()


class DihedralCycle:
    """An equivalence class of integer cycles under rotation and reversal,
    stored as its lexicographically least representative.

    Two instances are equal iff their canonical representatives are equal.
    Instances are immutable and hashable.
    """

    __slots__ = ("_canon",)

    def __init__(self, entries: Iterable[int]):
        self._canon = kernels.canonical_form(_cycle_word(entries))

    @classmethod
    def _from_canon(cls, canon: Pattern) -> "DihedralCycle":
        """Wrap a tuple that is already in canonical form, unchecked."""
        cyc = cls.__new__(cls)
        cyc._canon = canon
        return cyc

    @property
    def canon(self) -> Pattern:
        return self._canon

    def __len__(self) -> int:
        return len(self._canon)

    def __iter__(self) -> Iterator[int]:
        return iter(self._canon)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DihedralCycle) and self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __lt__(self, other: "DihedralCycle") -> bool:
        return (len(self._canon), self._canon) < (len(other._canon), other._canon)

    def __repr__(self) -> str:
        return f"DihedralCycle({list(self._canon)!r})"

    def __str__(self) -> str:
        return "<" + ",".join(map(str, self._canon)) + ">"

    def representatives(self) -> list[Pattern]:
        """All distinct linear representatives (rotations of the canonical
        word and of its reversal; at most 2n)."""
        return _representatives(self._canon)

    def to_json(self) -> list[int]:
        return list(self._canon)


def _representatives(word: Pattern) -> list[Pattern]:
    """Distinct rotations of ``word``, then of its reversal, in that order."""
    n = len(word)
    out = []
    seen = set()
    for base in (word, word[::-1]):
        d = base + base
        for i in range(n):
            r = d[i : i + n]
            if r not in seen:
                seen.add(r)
                out.append(r)
    return out


def _cycle_word(c: DihedralCycle | Iterable[int]) -> Pattern:
    """The canonical word of a class, or the validated entries as given."""
    if isinstance(c, DihedralCycle):
        return c.canon
    seq = as_pattern(c)
    if len(seq) < 2:
        raise ValueError("a cycle needs length >= 2")
    return seq


def canonicalize(raw: Iterable[int]) -> DihedralCycle:
    """The dihedral class of ``raw``; idempotent on canonical input."""
    return raw if isinstance(raw, DihedralCycle) else DihedralCycle(raw)


class EtaMatrix(NamedTuple):
    """2x2 integer matrix; products of the ear generators all have det 1."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other: "EtaMatrix") -> "EtaMatrix":
        return EtaMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = EtaMatrix(1, 0, 0, 1)
MINUS_IDENTITY = EtaMatrix(-1, 0, 0, -1)


def eta(a: int) -> EtaMatrix:
    """The generator ((a, -1), (1, 0))."""
    return EtaMatrix(a, -1, 1, 0)


def eta_product(seq: Iterable[int]) -> EtaMatrix:
    """Left-to-right product of ``eta`` over the entries.  Every quiddity
    cycle multiplies to minus the identity."""
    m = IDENTITY
    for a in seq:
        m = m @ eta(a)
    return m


def xi(a: int) -> EtaMatrix:
    """eta(a) @ eta(1); satisfies xi(a) xi(3) xi(b) = xi(a-1) xi(b-1)."""
    return eta(a) @ eta(1)


def _ear_reduces(word: Pattern) -> bool:
    """Ear reduction on the entries as given.

    Remove any entry equal to 1 and decrement its two cyclic neighbours;
    a cycle is a quiddity cycle iff this terminates at (0,0).  The choice
    of ear does not matter for members (removing an ear of a triangulated
    polygon leaves a triangulated polygon), and any successful reduction
    path certifies membership because each step reversed is an ear
    insertion, so a deterministic first-ear scan decides membership, and
    rotating or reversing the word does not change the verdict.
    """
    s = list(word)
    while True:
        n = len(s)
        if n == 2:
            return s[0] == 0 and s[1] == 0
        if 0 in s or 1 not in s:
            return False
        i = s.index(1)
        s[i - 1] -= 1
        s[(i + 1) % n] -= 1
        del s[i]


def is_quiddity(c: DihedralCycle | Iterable[int]) -> bool:
    """True iff ``c`` is (the class of) a quiddity cycle.

    Runs ear reduction on the validated entries without canonicalizing
    them first: the verdict is the same for every representative.
    """
    return _ear_reduces(_cycle_word(c))


def ear_insert(c: DihedralCycle | Iterable[int], position: int) -> DihedralCycle:
    """Insert a 1 between positions ``position`` and ``position + 1`` of
    the canonical representative (cyclically) and increment both
    neighbours.  The input must be a quiddity cycle; the result is one of
    length n + 1."""
    cyc = canonicalize(c)
    if not is_quiddity(cyc):
        raise ValueError(f"not a quiddity cycle: {cyc}")
    grown = kernels.insert_fanout(cyc.canon)
    return DihedralCycle._from_canon(grown[position % len(grown)])


#: Canonical words of the quiddity classes per length, each level sorted
#: once when it is built; filled in order from length 2 upwards.
_levels: dict[int, tuple[Pattern, ...]] = {}

#: The levels that ``kernels.next_level`` does not grow: it needs parents
#: of length >= 3, whose children have no two adjacent 1s.
_SEED_LEVELS: dict[int, tuple[Pattern, ...]] = {2: ((0, 0),), 3: ((1, 1, 1),)}


def _level(n: int) -> tuple[Pattern, ...]:
    """The sorted canonical words of the quiddity classes of length ``n``.

    Built length by length from (0,0) and (1,1,1) by ear insertion:
    ``kernels.next_level`` grows each level from the one before in a
    single call by canonical augmentation, the enumeration's inner loop;
    from length 14 on it splits the parents across forked processes, one
    per usable CPU, when no other thread is alive.  Memoized per length
    in ``_levels``, so repeated and incremental calls are cheap.  Lengths
    past ``DEFAULT_MAX_LENGTH`` raise before any level is built.
    """
    if n < 2:
        raise ValueError("cycle length starts at 2")
    if n > DEFAULT_MAX_LENGTH:
        raise ValueError(f"length {n} exceeds the enumeration bound {DEFAULT_MAX_LENGTH}")
    for k in range(len(_levels) + 2, n + 1):
        _levels[k] = _SEED_LEVELS.get(k) or kernels.next_level(_levels[k - 1])
    return _levels[n]


def enumerate_cycles(n: int) -> frozenset[DihedralCycle]:
    """All dihedral classes of quiddity cycles of length ``n``, for
    2 <= n <= ``DEFAULT_MAX_LENGTH``.

    The memo holds each length's sorted canonical words, not cycles:
    every call wraps the classes of its level afresh, without
    canonicalizing them a second time.
    """
    return frozenset(map(DihedralCycle._from_canon, _level(n)))


def contains_cyclic(c: DihedralCycle | Iterable[int], d: Iterable[int]) -> bool:
    """True iff some representative of ``c`` (any rotation, either
    direction) has ``d`` as a consecutive subsequence."""
    return kernels.cyclic_contains(_cycle_word(c), as_pattern(d))


def contains_linear(seq: Iterable[int], d: Iterable[int]) -> bool:
    """Consecutive-subsequence test on a linear sequence: no wraparound,
    given orientation only."""
    return kernels.linear_contains(as_pattern(seq), as_pattern(d))
