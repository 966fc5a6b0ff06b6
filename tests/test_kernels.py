"""The pure kernels against their references: ``next_level`` against
one ``insert_fanout`` per parent, ``_is_least_rotation`` against
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


def test_next_level_grows_each_class_from_one_parent():
    # canonical augmentation: the children of distinct parents are
    # disjoint, and together they are the whole next level
    levels = fanout_levels(13)
    for k in range(4, 13):
        grown = set()
        for word in levels[k]:
            children = kernels.next_level((word,))
            assert grown.isdisjoint(children), word
            grown.update(children)
        assert grown == set(levels[k + 1]), k


def ear_rotations(rep):
    """The least rotation of ``rep`` from each of its ears, in either
    direction."""
    for p, entry in enumerate(rep):
        if entry == 1:
            forward = rep[p:] + rep[:p]
            yield min(forward, forward[:1] + forward[:0:-1])


def test_is_least_rotation_matches_canonical_form():
    from quiddity.cycles import _representatives

    reps = least = 0
    verdicts = set()
    for words in fanout_levels(10).values():
        for word in words:
            if len(word) < 4:
                continue
            canon = bytes(kernels.canonical_form(word))
            for rep in _representatives(word):
                reps += 1
                least += bytes(rep) == canon
                for r in ear_rotations(rep):
                    verdict = kernels._is_least_rotation(bytes(rep), bytes(r))
                    assert verdict == (bytes(r) == canon), (rep, r)
                    verdicts.add(verdict)
    # representatives that are their own least rotation, and others
    assert reps > 2000 and 0 < least < reps
    assert verdicts == {True, False}


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
