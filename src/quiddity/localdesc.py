"""Local descriptions of quiddity cycles.

The central object is a cover pair (E, F): a finite exceptional set E of
cycles plus a finite set F of linear patterns such that every quiddity
cycle outside E strictly contains some pattern of F.  ``theorem_step``
refines a cover pair into one whose patterns are strictly longer, via the
ear-doubling bijection and two rewriting systems:

* ``rho`` rewrites a linear sequence until no two adjacent entries exceed
  1 and both ends are 1 (splitting adjacent big pairs with an inserted 1,
  padding the ends);
* ``delta`` is the cyclic analogue on dihedral classes.

Preimage sets under ``rho`` are computed by breadth-first reverse
rewriting; those under ``delta`` are generated directly, as the sets of
the target's inserted 1s that may be collapsed.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable

from . import kernels
from .cycles import (
    DEFAULT_MAX_LENGTH,
    DihedralCycle,
    Pattern,
    _Frozen,
    _Result,
    _level,
    as_pattern,
    canonicalize,
    is_quiddity,
)

ZERO_ZERO = DihedralCycle((0, 0))
TRIANGLE = DihedralCycle((1, 1, 1))

#: The 27 length-4 patterns: every quiddity cycle outside the three
#: exceptional classes below strictly contains one of them (cyclically,
#: either direction).
QUADRUPLE_PATTERNS: tuple[Pattern, ...] = (
    (1, 2, 2, 1), (1, 2, 2, 2), (1, 2, 2, 3), (1, 2, 2, 4), (1, 2, 3, 1),
    (1, 2, 3, 2), (1, 2, 3, 3), (1, 2, 4, 1), (1, 2, 4, 3), (1, 2, 5, 1),
    (1, 2, 5, 2), (1, 2, 6, 1), (1, 3, 1, 3), (1, 3, 1, 4), (1, 3, 1, 5),
    (1, 3, 1, 6), (1, 3, 4, 1), (1, 4, 1, 2), (1, 5, 1, 2), (1, 6, 1, 2),
    (1, 7, 1, 2), (2, 1, 3, 2), (2, 1, 3, 3), (2, 2, 1, 4), (2, 2, 1, 5),
    (3, 1, 2, 3), (3, 1, 2, 4),
)

#: Exceptional linear representatives for the interior-subsequence
#: theorem: any other representative of any quiddity cycle has one of the
#: nine patterns below inside positions 2..n-1 (forward or reversed).
EXCEPTIONAL_REPRESENTATIVES: tuple[Pattern, ...] = (
    (0, 0), (1, 1, 1), (1, 2, 1, 2), (2, 1, 2, 1), (2, 1, 3, 1, 2),
)

NINE_PATTERNS: tuple[Pattern, ...] = (
    (1, 2, 2), (1, 2, 3), (1, 2, 4),
    (2, 1, 3), (2, 1, 4), (2, 1, 5),
    (3, 1, 4), (3, 1, 5), (1, 3, 1, 3),
)

#: Twelve-pattern cover obtained by refining the trivial cover twice and
#: pruning reversal duplicates; exceptional set {(0,0),(1,1,1),(1,2,1,2)}.
TWELVE_PATTERNS: tuple[Pattern, ...] = (
    (1, 2, 2), (1, 2, 3, 1), (1, 2, 3, 2, 1), (1, 2, 4, 1, 2),
    (1, 2, 4, 1, 3, 1), (1, 3, 1, 3), (1, 3, 1, 4, 1), (1, 3, 1, 5, 1, 2),
    (1, 3, 1, 5, 1, 3, 1), (1, 4, 1, 2), (2, 1, 3), (2, 1, 5, 1, 2),
)


class CoverPair(_Frozen):
    """A finite exceptional-cycle set E and finite pattern set F."""

    __slots__ = ("E", "F")

    @classmethod
    def of(cls, E: Iterable, F: Iterable[Iterable[int]]) -> "CoverPair":
        return cls(
            frozenset(canonicalize(e) for e in E),
            frozenset(as_pattern(f) for f in F),
        )

    def sorted_e(self) -> list[DihedralCycle]:
        return sorted(self.E, key=lambda e: _by_length(e.canon))

    def sorted_f(self) -> list[Pattern]:
        return sorted(self.F, key=_by_length)

    def check_properties(self) -> None:
        """Raise unless (0,0),(1,1,1) are in E, F is nonempty and every f
        in F has a 1."""
        if ZERO_ZERO not in self.E or TRIANGLE not in self.E:
            raise ValueError("E must contain <0,0> and <1,1,1>")
        if not self.F:
            raise ValueError("F must contain at least one pattern")
        for f in self.F:
            if 1 not in f:
                raise ValueError(f"every pattern in F must contain a 1: {f}")

    def to_json(self) -> dict:
        return {
            "E": [list(e.canon) for e in self.sorted_e()],
            "F": [list(f) for f in self.sorted_f()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoverPair":
        if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in "EF")):
            raise ValueError('a pair must be a JSON object whose "E" and "F" are lists')
        return cls.of(data["E"], data["F"])


def _by_length(word: Pattern) -> tuple[int, Pattern]:
    """Sort key: shorter words first, then lexicographic."""
    return (len(word), word)


#: (E, F) seeds addressable from the CLI as builtin:<name>.
def _builtin_pairs() -> dict[str, CoverPair]:
    return {
        # minimal seed: every quiddity cycle beyond <0,0> has an ear
        "base": CoverPair.of([(0, 0), (1, 1, 1)], [(1,)]),
        # 27 quadruples with the three short exceptional classes
        "cor12": CoverPair.of(
            [(0, 0), (1, 1, 1), (1, 2, 1, 2)], QUADRUPLE_PATTERNS
        ),
        # every quiddity cycle contains (0,0), (1,1), (1,2) or (1,3);
        # only <0,0> contains its witness non-strictly, so it sits in E
        "ends": CoverPair.of([(0, 0)], [(0, 0), (1, 1), (1, 2), (1, 3)]),
        # nine interior patterns, with the exceptional representatives
        # collapsed to their dihedral classes
        "thm16": CoverPair.of(
            [(0, 0), (1, 1, 1), (1, 2, 1, 2), (2, 1, 3, 1, 2)], NINE_PATTERNS
        ),
        # twelve-pattern refinement with the three-class exceptional set
        "thm16proof": CoverPair.of(
            [(0, 0), (1, 1, 1), (1, 2, 1, 2)], TWELVE_PATTERNS
        ),
    }


BUILTIN_PAIRS = _builtin_pairs()


# ---------------------------------------------------------------------------
# rewriting maps


def psi(seq: Iterable[int]) -> Pattern:
    """Interleave: each entry + 2 followed by a 1; doubles the length."""
    out: list[int] = []
    for c in as_pattern(seq):
        out.append(c + 2)
        out.append(1)
    return tuple(out)


def psi_bar(c: DihedralCycle | Iterable[int]) -> DihedralCycle:
    """Ear doubling on classes: psi applied cyclically.  Bijection from
    quiddity cycles onto those of even length with exactly half the
    entries equal to 1."""
    cyc = canonicalize(c)
    if not is_quiddity(cyc):
        raise ValueError(f"not a quiddity cycle: {cyc}")
    return DihedralCycle(psi(cyc.canon))


def in_a_prime(c: DihedralCycle) -> bool:
    """Even length, exactly half the entries equal to 1, and a quiddity
    cycle: the image of ``psi_bar``."""
    n = len(c)
    return n % 2 == 0 and sum(1 for e in c.canon if e == 1) * 2 == n and is_quiddity(c)


def psi_bar_inv(c: DihedralCycle | Iterable[int]) -> DihedralCycle:
    """Inverse of ``psi_bar``: remove all ears at once (drop the 1s,
    subtract 2 from the survivors).

    No two ears of a quiddity cycle longer than 3 are adjacent, so in a
    class of the image, half of whose entries are 1, the 1s alternate
    with the other entries, and the canonical word reads (1, x1, 1, x2,
    ...)."""
    cyc = canonicalize(c)
    if not in_a_prime(cyc):
        raise ValueError(f"not in the ear-doubled image: {cyc}")
    return DihedralCycle(x - 2 for x in cyc.canon[1::2])


def iota(seq: Iterable[int]) -> Pattern:
    """Prepend a 1 to an alternating (value, 1, value, 1, ...) sequence
    as produced by ``psi``."""
    s = as_pattern(seq)
    if len(s) % 2 != 0 or any(s[i] != 1 for i in range(1, len(s), 2)) or any(
        s[i] == 1 for i in range(0, len(s), 2)
    ):
        raise ValueError(f"malformed alternation: {s}")
    return (1,) + s


def rho(seq: Iterable[int]) -> Pattern:
    """Normal form of a linear sequence under three rewriting rules:
    pad a first entry > 1 with a leading 1 (incrementing it), split the
    leftmost adjacent pair with both entries > 1 by an inserted 1
    (incrementing both), pad a last entry > 1 with a trailing 1.

    Rules are applied with that priority at the leftmost position, which
    makes the function deterministic; order-independence is a tested
    property, not an assumption.
    """
    s = list(as_pattern(seq))
    while True:
        if s[0] > 1:
            s[0:1] = [1, s[0] + 1]
            continue
        for i in range(len(s) - 1):
            if s[i] > 1 and s[i + 1] > 1:
                s[i : i + 2] = [s[i] + 1, 1, s[i + 1] + 1]
                break
        else:
            if s[-1] > 1:
                s[-1:] = [s[-1] + 1, 1]
                continue
            return tuple(s)


def rho_preimages(target: Iterable[int]) -> frozenset[Pattern]:
    """All sequences whose ``rho`` normal form is ``target``.

    Breadth-first reverse rewriting: collapse (x,1,y) with x,y >= 3 to
    (x-1,y-1), strip a leading (1,x) with x >= 3 to (x-1), strip a
    trailing (x,1) with x >= 3 to (x-1).  Every reverse step shortens the
    sequence, so the search is finite.  Each one undoes a forward rule
    whose precondition holds, since x-1 >= 2, and the rules are confluent,
    so every sequence reached normalizes to ``target``.
    """
    t = as_pattern(target)
    if rho(t) != t:
        raise ValueError(f"target is not a rho normal form: {t}")
    seen = {t}
    queue = deque([t])
    while queue:
        s = queue.popleft()
        preds: list[Pattern] = []
        for i in range(len(s) - 2):
            if s[i] >= 3 and s[i + 1] == 1 and s[i + 2] >= 3:
                preds.append(s[:i] + (s[i] - 1, s[i + 2] - 1) + s[i + 3 :])
        if len(s) >= 2 and s[0] == 1 and s[1] >= 3:
            preds.append((s[1] - 1,) + s[2:])
        if len(s) >= 2 and s[-1] == 1 and s[-2] >= 3:
            preds.append(s[:-2] + (s[-2] - 1,))
        for p in preds:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return frozenset(seen)


_DELTA_EXCLUDED = frozenset({ZERO_ZERO.canon, TRIANGLE.canon})


def _delta_word(word: Pattern) -> Pattern:
    """``delta`` from a canonical word to the canonical word of its image."""
    s = list(word)
    while True:
        for i in range(len(s) - 1):
            if s[i] > 1 and s[i + 1] > 1:
                s[i : i + 2] = [s[i] + 1, 1, s[i + 1] + 1]
                break
        else:
            if s[0] > 1 and s[-1] > 1:
                s = [s[0] + 1] + s[1:-1] + [s[-1] + 1, 1]
                continue
            return kernels.canonical_form(tuple(s))


def delta(c: DihedralCycle | Iterable[int]) -> DihedralCycle:
    """Cyclic normal form: split every cyclically adjacent pair with both
    entries > 1 by an inserted 1 until none remains.  Works on the
    canonical representative, leftmost split first, then the wraparound
    pair.  Not defined on <0,0> and <1,1,1>."""
    cyc = canonicalize(c)
    if cyc.canon in _DELTA_EXCLUDED:
        raise ValueError(f"delta is not defined on {cyc}")
    return DihedralCycle._from_canon(_delta_word(cyc.canon))


def delta_preimages(target: DihedralCycle | Iterable[int]) -> frozenset[DihedralCycle]:
    """All classes in the domain of ``delta`` that normalize to ``target``,
    generated directly.

    A class normalizes to ``target`` iff ``target`` is reached from it by
    forward splits, that is iff it is reached from ``target`` by reverse
    steps: each collapses a cyclic window (x,1,y) with x,y >= 3 to
    (x-1,y-1), which undoes a forward split whose precondition holds,
    since x-1 >= 2; windows may wrap, which also inverts the boundary
    rule, and the splits are confluent.

    ``target`` lies in the ear-doubled image, so its canonical word reads
    (1, x_0, 1, x_1, ..., 1, x_{k-1}) with x_j = e_j + 2, k >= 2 and
    e = ``psi_bar_inv(target)``; call the 1 before x_j the j-th one.  A
    reverse step removes one 1 and lowers its two neighbours by one.  It
    makes no 1 and raises no entry, so every x_j stays >= 2 and is never
    removed: every step removes one of the k ones, whose neighbours are
    always the x_j around it.  A path of reverse steps thus removes a set
    S of the ones in some order, and ends at the word of S: ``target``
    without them, each x_j lowered by s_j + s_{j+1} (indices mod k,
    s_j = 1 iff the j-th one is in S).  The removal of the j-th one needs
    x_{j-1}, x_j >= 3 just before it, and entries only fall: so if each
    x_j ends >= 2, each was >= 3 before every removal that lowers it, in
    any order; if some x_j ends < 2, the last removal that lowered it
    found it < 3.  So the preimages are exactly the words of the sets S
    with s_j + s_{j+1} <= e_j for every j: no ear of e loses both of its
    1s, and ``psi_bar(<0,0>)`` loses none.  None is <0,0> or <1,1,1>,
    where ``delta`` is not defined, as each keeps k >= 2 entries >= 2.

    The sets are chosen depth-first, s_0 first, and s_j is dropped as
    soon as s_{j-1} + s_j > e_{j-1}; the last constraint, on s_{k-1} and
    s_0, is checked once s_{k-1} is chosen.  A partial word holds the
    entries fixed so far, and the stack holds at most two per level,
    O(k) of them.  Distinct sets may give the same class when ``target``
    has a symmetry; each word is canonicalized once.
    """
    tgt = canonicalize(target)
    if not in_a_prime(tgt):
        raise ValueError(f"target not in the ear-doubled image: {tgt}")
    x = tgt.canon[1::2]
    found: set[Pattern] = set()
    for first in (0, 1):
        stack = [(1, first, ())]  # (j, s_{j-1}, the word of S up to x_{j-2})
        while stack:
            j, prev, word = stack.pop()
            word += () if prev else (1,)
            if j < len(x):
                for s in (0, 1):
                    if prev + s <= x[j - 1] - 2:
                        stack.append((j + 1, s, word + (x[j - 1] - prev - s,)))
            elif prev + first <= x[-1] - 2:
                found.add(kernels.canonical_form(word + (x[-1] - prev - first,)))
    return frozenset(map(DihedralCycle._from_canon, found))


def theorem_step(pair: CoverPair) -> CoverPair:
    """One refinement step on a cover pair.

    E' adds every ``delta`` preimage of the ear doubling of each member
    of E; F' is the union of the ``rho`` preimage sets of iota(psi(f)).
    The minimum pattern length strictly increases: every preimage of
    iota(psi(f)) is at least len(f) + 1 long.  iota(psi(f)) puts a 1
    before and after each entry x + 2 of f.  A reverse ``rho`` step
    removes one 1 and lowers each neighbour of it, which must be >= 3,
    by one; it removes no other entry and makes no new 1.
    ``check_properties`` requires a 1 in f, so a 3 stands between two
    1s.  The first of them to go lowers it to 2 for good, which leaves
    the other with a neighbour < 3: that 1 stays, beside the len(f)
    entries that no step removes.

    The preimages need no membership test: the ear doubling of a quiddity
    cycle is one, and each reverse ``delta`` step collapses (x,1,y) with
    x,y >= 3 into (x-1,y-1), which removes an ear and so keeps a quiddity
    cycle a quiddity cycle.
    """
    pair.check_properties()
    new_e = set(pair.E)
    for e in pair.E:
        new_e |= delta_preimages(psi_bar(e))  # raises unless e is a quiddity cycle
    new_f: set[Pattern] = set()
    for f in pair.F:
        new_f |= rho_preimages(iota(psi(f)))
    return CoverPair(frozenset(new_e), frozenset(new_f))


# ---------------------------------------------------------------------------
# verification


class CoverReport(_Result):
    """Outcome of checking a cover pair against an enumeration: the
    ``checked`` classes, the ``violations`` and the length ``bound``."""

    __slots__ = ("checked", "violations", "bound")

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_bound(max_length: int) -> None:
    """Refuse a bound below 2 or past the enumeration bound before any
    level is built."""
    if max_length < 2:
        raise ValueError("max_length must be >= 2")
    if max_length > DEFAULT_MAX_LENGTH:
        raise ValueError(
            f"max_length {max_length} exceeds the enumeration bound {DEFAULT_MAX_LENGTH}"
        )


def _trie_source(patterns: Iterable[bytes]) -> bytes:
    """A ``re`` source over bytes matching any of ``patterns``, shaped as
    their trie: shared prefixes are written once, and a node where a
    pattern ends matches at once, so longer patterns through it are
    dropped.  Bytes are written as themselves, escaped only where ``re``
    reads them as syntax, which keeps the source short to parse.  The
    patterns must be nonempty, so ``source`` never enters a node where
    one ends; an empty set of them matches nothing."""
    trie: dict = {}
    for p in patterns:
        node = trie
        for c in p:
            node = node.setdefault(c, {})
        node[None] = None

    def source(node: dict) -> bytes:
        children = sorted(node.items())
        ends = b"".join(re.escape(bytes((c,))) for c, child in children if None in child)
        branches = [b"[" + ends + b"]"] if ends else []
        branches += [
            re.escape(bytes((c,))) + source(child) for c, child in children if None not in child
        ]
        return branches[0] if len(branches) == 1 else b"(?:" + b"|".join(branches) + b")"

    return source(trie) if trie else b"(?!)"


def verify_cover(pair: CoverPair, max_length: int) -> CoverReport:
    """Check property (2): every quiddity cycle of length <= max_length is
    in E or strictly contains some pattern of F (strictness is
    len(f) < len(c)).  A max_length below 2 or above
    ``DEFAULT_MAX_LENGTH`` raises before any class is enumerated.

    The patterns of F and their reversals are compiled once per call into
    one regular expression over bytes shaped as their shared-prefix trie
    (as in Aho and Corasick, "Efficient string matching", CACM 18, 1975),
    which ``re`` runs in C.  A class of length n outside E is checked by
    one search over its word followed by its first k entries,
    k = min(longest pattern, n - 1) - 1, which holds every cyclic window
    of each pattern shorter than n: a pattern occurs in the word read
    backwards iff its reversal occurs forwards.  The trie matches the
    shortest pattern at each start, so a match n or more long rules out
    only its start, and the search goes on from the next one.  Patterns
    of max_length or more entries, which no class up to the bound is
    longer than, are dropped, so the trie is at most 23 deep; so are
    patterns and members of E with an entry above 255, as every entry of
    a class of length <= 257 fits in a byte."""
    _check_bound(max_length)
    e_words = {bytes(e.canon) for e in pair.E if max(e.canon) < 256}
    usable = [bytes(f) for f in pair.F if len(f) < max_length and max(f) < 256]
    longest = max(map(len, usable), default=0)
    regex = re.compile(_trie_source(f for p in usable for f in (p, p[::-1])))
    checked = 0
    violations: list[DihedralCycle] = []
    for n in range(2, max_length + 1):
        k = min(longest, n - 1) - 1
        wide = longest >= n
        level = _level(n)
        checked += len(level) // n
        for i in range(0, len(level), n):
            word = level[i : i + n]
            if word in e_words:
                continue
            m = regex.search(word + word[:k])
            while wide and m and m.end() - m.start() >= n:
                m = regex.search(m.string, m.start() + 1)
            if m is None:
                violations.append(DihedralCycle._from_canon(tuple(word)))
    return CoverReport(checked=checked, violations=violations, bound=max_length)


class SubseqReport(_Result):
    """Outcome of the interior-subsequence check over all representatives."""

    __slots__ = ("checked", "violations", "bound", "pattern_hits", "exceptional_hits")

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_thm_subseqs(max_length: int) -> SubseqReport:
    """For every representative of every quiddity cycle of length <=
    max_length: either it is one of the five exceptional representatives
    or its interior (positions 2..n-1), forward or reversed, linearly
    contains one of the nine patterns.  A max_length below 2 or above
    ``DEFAULT_MAX_LENGTH`` raises before any class is enumerated.

    Each class is read in one pass over its cyclic windows of the
    pattern lengths, read off the level's blob and looked up in a table
    that maps every pattern and its reversal, as ``bytes``, to its first
    index (rank) in ``NINE_PATTERNS``.  The interior of the rotation at
    i is the cyclic word without positions i - 1 and i, so a window of
    length m at start s lies inside the interiors of the rotations
    s + m + 1, ..., s + n - 1 (mod n).  Taking the found windows in rank
    order gives every rotation its first hit, and the pass stops once
    each rotation has one.

    The representatives are counted, not built.  With p the least
    rotation period of the word, the distinct representatives are the
    rotations 0..p-1, plus as many reversed rotations unless the class
    is reflection-symmetric.  The reversed rotation at j has the reversed
    interior of the rotation at (n - j) mod n, so the reversed rotations'
    hits are a permutation of the first p hits.  Representative tuples
    are built, in the order of ``_representatives``, only for the
    representatives without a hit, in classes with a rotation that has
    none: each is exceptional or a violation.  Every exceptional
    representative is among them, since its interior, (), (1), (2,1),
    (1,2) or (1,3,1), holds no pattern."""
    _check_bound(max_length)
    counts = [0] * len(NINE_PATTERNS)
    exceptional_hits: dict[Pattern, int] = {e: 0 for e in EXCEPTIONAL_REPRESENTATIVES}
    rank: dict[bytes, int] = {}
    for r, p in enumerate(NINE_PATTERNS):
        rank.setdefault(bytes(p), r)
        rank.setdefault(bytes(p[::-1]), r)
    lengths = sorted({len(p) for p in NINE_PATTERNS})
    checked = 0
    violations: list[Pattern] = []
    for n in range(2, max_length + 1):
        fitting = [m for m in lengths if m <= n - 2]
        level = _level(n)
        for q in range(0, len(level), n):
            b = level[q : q + n]
            d = b + b
            found = sorted(
                (r, s, m)
                for m in fitting
                for s in range(n)
                if (r := rank.get(d[s : s + m])) is not None
            )
            hits: list[int | None] = [None] * n
            left = n
            for r, s, m in found:
                for t in range(s + m + 1, s + n):
                    i = t % n
                    if hits[i] is None:
                        hits[i] = r
                        left -= 1
                if not left:
                    break
            p = d.find(b, 1)
            copies = 1 if b[::-1] in d else 2
            checked += copies * p
            for r in hits[:p]:
                if r is not None:
                    counts[r] += copies
            if left:
                bases = ((b, hits), (b[::-1], hits[:1] + hits[:0:-1]))
                for base, base_hits in bases[:copies]:
                    for i in range(p):
                        if base_hits[i] is None:
                            rep = tuple(base[i:] + base[:i])
                            if rep in exceptional_hits:
                                exceptional_hits[rep] += 1
                            else:
                                violations.append(rep)
    return SubseqReport(
        checked=checked,
        violations=violations,
        bound=max_length,
        pattern_hits=dict(zip(NINE_PATTERNS, counts)),
        exceptional_hits=exceptional_hits,
    )
