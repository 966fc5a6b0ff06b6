"""Local descriptions of quiddity cycles.

The central object is a cover pair (E, F): a finite exceptional set E of
cycles plus a finite set F of linear patterns such that every quiddity
cycle outside E strictly contains some pattern of F.  ``theorem_step``
refines a cover pair into one whose patterns are strictly longer, via the
ear-doubling bijection and two rewriting systems:

* ``delta`` puts a 1 on every cyclic edge between two entries > 1 of a
  dihedral class and raises both ends of the edge;
* ``rho`` does the same on a linear sequence, padding an end > 1 with a
  1: it is the cyclic rule on the sequence closed by a sentinel entry 4.

Both are one pass of ``_split``, and both preimage sets are generated
directly by ``_collapsed``, as the sets of the target's 1s that may be
collapsed.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

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
    pad a first entry > 1 with a leading 1 (incrementing it), split an
    adjacent pair with both entries > 1 by an inserted 1 (incrementing
    both), pad a last entry > 1 with a trailing 1.

    The sequence closed into a cycle by a sentinel entry 4 has one more
    cyclic edge on each side of it, and the paddings are the splits of
    those edges: ``_split`` of that cycle, read without the sentinel.
    """
    return _split(as_pattern(seq) + (4,))[:-1]


def rho_preimages(target: Iterable[int]) -> frozenset[Pattern]:
    """All sequences whose ``rho`` normal form is ``target``.

    With the sentinel 4 closing ``target``, these are the words of
    ``_collapsed`` read without the (lowered) sentinel.  A word ``u``
    with ``rho(u) == target`` has d <= 2 sentinel edges split, so
    ``u`` closed by 4 - d >= 2 splits to ``target`` closed by 4, and
    conversely any sentinel > 1 splits the same edges.  A ``target`` of
    length 1 is its own only preimage: ``rho`` never shortens a word,
    and a word it does not lengthen is its own normal form.  Without
    that case the lone 1 of (1,) would collapse onto the sentinel and
    give the empty word.
    """
    t = as_pattern(target)
    if rho(t) != t:
        raise ValueError(f"target is not a rho normal form: {t}")
    if len(t) == 1:
        return frozenset({t})
    return frozenset(w[:-1] for w in _collapsed(t + (4,)))


_DELTA_EXCLUDED = frozenset({ZERO_ZERO.canon, TRIANGLE.canon})


def delta(c: DihedralCycle | Iterable[int]) -> DihedralCycle:
    """Cyclic normal form: split every cyclically adjacent pair with both
    entries > 1 by an inserted 1, ``_split`` on the canonical word.  Not
    defined on <0,0> and <1,1,1>."""
    cyc = canonicalize(c)
    if cyc.canon in _DELTA_EXCLUDED:
        raise ValueError(f"delta is not defined on {cyc}")
    return DihedralCycle._from_canon(kernels.canonical_form(_split(cyc.canon)))


def delta_preimages(target: DihedralCycle | Iterable[int]) -> frozenset[DihedralCycle]:
    """All classes in the domain of ``delta`` that normalize to ``target``:
    the words of ``_collapsed`` on its canonical word, canonicalized.

    ``target`` lies in the ear-doubled image, so its canonical word reads
    (1, x_0, 1, x_1, ..., 1, x_{k-1}) with x_j = e_j + 2, k >= 2 and
    e = ``psi_bar_inv(target)``; every 1 is lone, and x_j lies between
    the j-th and the (j+1)-th of them.  So a set S of them is kept iff
    s_j + s_{j+1} <= e_j for every j, indices mod k: no ear of e loses
    both of its 1s, and ``psi_bar(<0,0>)`` loses none.  None of the words
    is <0,0> or <1,1,1>, where ``delta`` is not defined, as each keeps
    k >= 2 entries >= 2.  Distinct sets may give the same class when
    ``target`` has a symmetry; each word is canonicalized once.
    """
    tgt = canonicalize(target)
    if not in_a_prime(tgt):
        raise ValueError(f"target not in the ear-doubled image: {tgt}")
    found = {kernels.canonical_form(w) for w in _collapsed(tgt.canon)}
    return frozenset(map(DihedralCycle._from_canon, found))


def _split(word: Pattern) -> Pattern:
    """Put a 1 on every cyclic edge of ``word`` between two entries > 1
    and raise both ends of the edge by one.  The 1 on the closing edge,
    from the last entry to the first, goes in front.

    A split raises entries > 1 and inserts a 1, so it never changes
    which entries are > 1, and the two edges it makes each end at the 1.
    Splits one at a time, in any order, until none applies, therefore
    split each such edge of ``word`` exactly once and no other: the
    normal form is this one pass, whatever the order."""
    n = len(word)
    out: list[int] = []
    for i, x in enumerate(word):
        left = x > 1 and word[i - 1] > 1
        right = x > 1 and word[(i + 1) % n] > 1
        if left:
            out.append(1)
        out.append(x + left + right)
    return tuple(out)


def _collapsed(word: Pattern) -> Iterator[Pattern]:
    """Every cyclic word whose ``_split`` is ``word``, for a ``word`` that
    is its own ``_split`` (no two cyclically adjacent entries > 1) and
    whose last entry is > 1.

    They are the words that drop a set S of the 1s of ``word`` and lower
    each neighbour of a dropped 1 once per dropped 1 beside it, for the
    sets S that leave every lowered entry >= 2.  Such a word keeps the
    entries > 1 of ``word``; its adjacent pairs are those of ``word``,
    never both > 1, and the pairs that meet across a dropped 1, both
    >= 2.  So ``_split`` splits exactly those, which puts the 1s of S
    back and raises each lowered entry back.  Conversely the 1s that
    ``_split`` inserts into a word form such a set, as the ends it
    raises were > 1.  A 1 in a run of 1s or next to a 0 never drops,
    and no two dropped 1s are adjacent.

    The sets are chosen depth-first, left to right.  A state holds the
    next index i, whether the 1 at i - 1 was dropped, and the word so
    far after a copy of the last entry, which the first entry's drop
    lowers; the copy moves to the end once the last 1 is chosen.  Each
    lowering is checked as it is made, the one across the closing edge
    last.  The last entry, > 1, never drops, so the stack holds O(len)
    partial words."""
    n = len(word) - 1
    stack = [(0, 0, word[n:])]
    while stack:
        i, dropped, out = stack.pop()
        x = (out[0] if i == n else word[i]) - dropped
        if dropped and x < 2:
            continue
        if i == n:
            yield out[1:] + (x,)
            continue
        stack.append((i + 1, 0, out + (x,)))
        if x == 1 and out[-1] >= 3:
            stack.append((i + 1, 1, out[:-1] + (out[-1] - 1,)))


def theorem_step(pair: CoverPair) -> CoverPair:
    """One refinement step on a cover pair.

    E' adds every ``delta`` preimage of the ear doubling of each member
    of E; F' is the union of the ``rho`` preimage sets of iota(psi(f)).
    The minimum pattern length strictly increases: every preimage of
    iota(psi(f)) is at least len(f) + 1 long.  iota(psi(f)) puts a 1
    before and after each entry x + 2 of f, and a preimage drops a set
    of these 1s, lowering each neighbour once per dropped 1 beside it,
    with every lowered entry kept >= 2; it drops no other entry.
    ``check_properties`` requires a 1 in f, so a 3 stands between two
    1s, and dropping both would lower it to 1: one of them stays, beside
    the len(f) entries that are never dropped.

    The preimages need no membership test: the ear doubling of a quiddity
    cycle is one, and collapsing a window (x,1,y) into (x-1,y-1) removes
    an ear and so keeps a quiddity cycle a quiddity cycle; the words of a
    collapse set are reached by collapsing its 1s one at a time, each
    neighbour >= 3 just before, as it ends >= 2.
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
    """Outcome of the interior-subsequence check over all representatives;
    ``all_witnesses_hit``: each pattern and exceptional one was met too."""

    __slots__ = ("checked", "violations", "bound", "pattern_hits", "exceptional_hits")
    _json_fields = __slots__ + ("all_witnesses_hit",)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def all_witnesses_hit(self) -> bool:
        return all(self.pattern_hits.values()) and all(self.exceptional_hits.values())


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
