"""The pure kernels against their references: ``next_level`` against
one ``insert_fanout`` per parent, ``_ear_canonical`` against
``canonical_form``, and ``canonical_form`` against a brute-force minimum
over all rotations."""

import random
from itertools import product

from quiddity import kernels


def fanout_levels(max_length):
    """Levels 3..max_length grown by one set of ``insert_fanout`` children
    per level, the enumeration before ``next_level``."""
    levels = {3: ((1, 1, 1),)}
    for k in range(4, max_length + 1):
        children = set()
        for word in levels[k - 1]:
            children.update(kernels.insert_fanout(word))
        levels[k] = tuple(sorted(children))
    return levels


def test_next_level_matches_insert_fanout_reference():
    levels = fanout_levels(13)
    for k in range(3, 13):
        assert kernels.next_level(levels[k]) == levels[k + 1], k


def test_ear_canonical_matches_canonical_form():
    from quiddity.cycles import _representatives

    reps = 0
    for words in fanout_levels(10).values():
        for word in words:
            if len(word) < 4:
                continue
            for rep in _representatives(word):
                reps += 1
                assert kernels._ear_canonical(bytes(rep)) == bytes(kernels.canonical_form(rep)), rep
    assert reps > 2000


def test_pure_canonical_form_basics():
    assert kernels.canonical_form(()) == ()
    assert kernels.canonical_form((5,)) == (5,)
    assert kernels.canonical_form((3, 2, 1, 3, 2, 1)) == (1, 2, 3, 1, 2, 3)


def brute_canonical_form(seq):
    """Least of all 2n rotations of ``seq`` and of its reversal."""
    n = len(seq)
    rotations = [rep[i:] + rep[:i] for rep in (seq, seq[::-1]) for i in range(n)]
    return min(rotations, default=seq)


def test_huge_entries_fall_back():
    # entries of arbitrary size take the same pure path as small ones
    big = (10**30, 1, 10**30 + 1)
    assert kernels.canonical_form(big) == brute_canonical_form(big)


def test_pure_canonical_form_matches_brute_force():
    # exhaustive on small words, including ties between several minimal
    # entries and palindromes
    for n in range(8):
        for word in product(range(4), repeat=n):
            assert kernels.canonical_form(word) == brute_canonical_form(word), word
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(1, 20)
        pool = [rng.randint(-10**12, 10**12) for _ in range(3)] + [-1, 0, 1]
        word = tuple(rng.choice(pool) for _ in range(n))
        assert kernels.canonical_form(word) == brute_canonical_form(word), word
