"""Backend parity: the compiled kernels must match the pure-Python ones,
and the pure canonical form a brute-force minimum over all rotations."""

import random
from itertools import product

import pytest

from quiddity import kernels
from quiddity.kernels import available_backends, get_module

pure = get_module("python")

needs_c = pytest.mark.skipif(
    "c" not in available_backends(), reason="compiled kernels not built"
)


def random_cases(count, seed=20240601):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 16)
        word = tuple(rng.randint(0, 9) for _ in range(n))
        pat = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
        yield word, pat


@needs_c
def test_canonical_form_parity():
    comp = get_module("c")
    for word, _ in random_cases(4000):
        assert comp.canonical_form(word) == pure.canonical_form(word)


@needs_c
def test_contains_parity():
    comp = get_module("c")
    for word, pat in random_cases(4000):
        assert comp.cyclic_contains(word, pat) == pure.cyclic_contains(word, pat)
        assert comp.linear_contains(word, pat) == pure.linear_contains(word, pat)


@needs_c
def test_insert_fanout_parity():
    comp = get_module("c")
    for word, _ in random_cases(1500):
        if len(word) >= 2:
            assert comp.insert_fanout(word) == pure.insert_fanout(word)


def fanout_levels(max_length):
    """Levels 3..max_length grown by one set of ``insert_fanout`` children
    per level, the enumeration before ``next_level``."""
    levels = {3: ((1, 1, 1),)}
    for k in range(4, max_length + 1):
        children = set()
        for word in levels[k - 1]:
            children.update(pure.insert_fanout(word))
        levels[k] = tuple(sorted(children))
    return levels


def test_next_level_matches_insert_fanout_reference():
    levels = fanout_levels(13)
    for k in range(3, 13):
        assert pure.next_level(levels[k]) == levels[k + 1], k


@needs_c
def test_next_level_parity():
    levels = fanout_levels(12)
    original = kernels.backend()
    try:
        kernels.set_backend("c")
        for k in range(3, 12):
            assert kernels.next_level(levels[k]) == levels[k + 1], k
    finally:
        kernels.set_backend(original)


def test_ear_canonical_matches_canonical_form():
    from quiddity.cycles import _representatives

    reps = 0
    for words in fanout_levels(10).values():
        for word in words:
            if len(word) < 4:
                continue
            for rep in _representatives(word):
                reps += 1
                assert pure._ear_canonical(bytes(rep)) == bytes(pure.canonical_form(rep)), rep
    assert reps > 2000


def test_dispatch_survives_backend_switch():
    original = kernels.backend()
    try:
        for name in available_backends():
            kernels.set_backend(name)
            assert kernels.backend() == name
            assert kernels.canonical_form((2, 1, 3, 1, 2)) == (1, 2, 2, 1, 3)
            assert kernels.cyclic_contains((1, 2, 1, 2), (2, 1, 2))
            assert not kernels.linear_contains((1, 2, 2, 1, 3), (3, 1))
    finally:
        kernels.set_backend(original)


def test_huge_entries_fall_back():
    big = (10**30, 1, 10**30 + 1)
    assert kernels.canonical_form(big) == pure.canonical_form(big)


def test_pure_canonical_form_basics():
    assert pure.canonical_form(()) == ()
    assert pure.canonical_form((5,)) == (5,)
    assert pure.canonical_form((3, 2, 1, 3, 2, 1)) == (1, 2, 3, 1, 2, 3)


def brute_canonical_form(seq):
    """Least of all 2n rotations of ``seq`` and of its reversal."""
    n = len(seq)
    rotations = [rep[i:] + rep[:i] for rep in (seq, seq[::-1]) for i in range(n)]
    return min(rotations, default=seq)


def test_pure_canonical_form_matches_brute_force():
    # exhaustive on small words, including ties between several minimal
    # entries and palindromes
    for n in range(8):
        for word in product(range(4), repeat=n):
            assert pure.canonical_form(word) == brute_canonical_form(word), word
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(1, 20)
        pool = [rng.randint(-10**12, 10**12) for _ in range(3)] + [-1, 0, 1]
        word = tuple(rng.choice(pool) for _ in range(n))
        assert pure.canonical_form(word) == brute_canonical_form(word), word
