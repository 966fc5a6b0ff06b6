"""The pure kernels against their references: ``next_level`` against
one ``insert_fanout`` per parent, against a digest of levels 2..16 and,
forked, against ``_grow`` in one process; the rules of ``_grow`` against
the children as built and read by ``canonical_form``;
``_is_least_rotation`` against ``canonical_form``, and
``canonical_form`` against a brute-force minimum over all rotations."""

import hashlib
import os
import random
import subprocess
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

from quiddity import cycles, kernels

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_levels_to_16_match_their_digest():
    # every level 2..16 word for word: a change to the kernel that moves
    # one class changes the digest
    levels = repr([cycles._level(n) for n in range(2, 17)])
    assert hashlib.sha256(levels.encode()).hexdigest() == (
        "fa4c48481d4da67ea18b77a991d821fd63041ccbf54163a32c053ee9cd353635"
    )


def test_canonical_words_start_with_an_ear_by_a_two_or_a_three_between_ears():
    # the corollary of the lemma in _grow's docstring, on the levels that
    # the digest above pins: x0 <= 3 for every parent of length >= 4
    for n in range(4, 17):
        for word in cycles._level(n):
            assert word[:2] == (1, 2) or word[:3] == (1, 3, 1), word


def ear_readings(b, i):
    """The child of the word ``b`` with an ear inserted on its edge
    (i, i + 1), as built by insertion, which reads from ear 0 for
    0 < i < n - 1, and the child's two readings from the new ear: toward
    the edge's second end v = b[i + 1] and toward its first end u = b[i]."""
    n = len(b)
    if i < n - 1:
        child = b[:i] + (b[i] + 1, 1, b[i + 1] + 1) + b[i + 2 :]
        p = i + 1
    else:
        child = (b[0] + 1,) + b[1 : n - 1] + (b[n - 1] + 1, 1)
        p = n
    toward_v = child[p:] + child[:p]
    return child, toward_v, toward_v[:1] + toward_v[:0:-1]


def grow_paths(parent):
    """The path ``_grow`` takes on each edge i of ``parent``, with the
    new ear's reading r toward its smaller neighbour, toward u on a tie,
    both found from the child as built by insertion."""
    b = tuple(parent)
    n = len(b)
    for i in range(n):
        child, toward_v, toward_u = ear_readings(b, i)
        r = toward_v if b[i] > b[(i + 1) % n] else toward_u
        if r < b:
            path = "kept: r < b"
        elif 0 < i < n - 1 and r[:i] != b[:i]:
            path = "rejected: ear 0 prefix"
        elif 0 < i < n - 1 and child < r:
            path = "rejected: ear 0 reading"
        elif r == kernels.canonical_form(child):
            path = "kept: scan"
        else:
            path = "rejected: scan"
        yield path, bytes(r)


def test_grow_takes_every_path(monkeypatch):
    # the children each rule decides, and the ones left to the scan
    scanned = []
    scan = kernels._is_least_rotation

    def spy(r):
        scanned.append(r)
        return scan(r)

    monkeypatch.setattr(kernels, "_is_least_rotation", spy)
    taken = set()
    for k in range(4, 14):
        for parent in cycles._level(k):
            scanned.clear()
            grown = set(kernels._tuples(kernels._grow((parent,)), k + 1))
            paths = list(grow_paths(parent))
            taken.update(path for path, _ in paths)
            kept = {tuple(r) for path, r in paths if path.startswith("kept")}
            assert grown == kept, parent
            assert sorted(scanned) == sorted(r for path, r in paths if "scan" in path), parent
    assert taken == {
        "kept: r < b",
        "rejected: ear 0 prefix",
        "rejected: ear 0 reading",
        "kept: scan",
        "rejected: scan",
    }


def test_tie_reading_toward_v_is_never_the_least_rotation():
    # on an edge whose ends are equal, u == v, _grow reads the new ear
    # toward u only; its docstring proves that where the reading toward v
    # is the lesser, it is never the child's least rotation, and this
    # checks the proof against the levels up to here
    ties = toward_v_smaller = 0
    for k in range(4, 13):
        for b in cycles._level(k):
            n = len(b)
            for i in range(n):
                if b[i] != b[(i + 1) % n]:
                    continue
                ties += 1
                child, toward_v, toward_u = ear_readings(b, i)
                if toward_v < toward_u:
                    toward_v_smaller += 1
                    assert not kernels._is_least_rotation(bytes(toward_v)), (b, i)
                    assert toward_v != kernels.canonical_form(child), (b, i)
    # 227,709 and 69,853 for the parents of length 4..16
    assert (ties, toward_v_smaller) == (1602, 464)


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


def two_cpus(monkeypatch):
    """Let ``next_level`` fork even on a one-CPU host, and count the forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted)
    return forks


def one_process(parents):
    return tuple(sorted(kernels._tuples(kernels._grow(parents), len(parents[0]) + 1)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [13, 14])
def test_forked_next_level_matches_one_process(monkeypatch, k):
    parents = cycles._level(k)
    forks = two_cpus(monkeypatch)
    grown = kernels.next_level(parents)
    assert forks, "the level did not fork"
    assert grown == one_process(parents)
    assert len(set(grown)) == len(grown) == (7528 if k == 13 else 24834)
    assert_no_child_left()


def test_next_level_forks_from_two_thousand_parents(monkeypatch):
    forks = two_cpus(monkeypatch)
    kernels.next_level(cycles._level(12))  # 733 parents
    assert not forks
    kernels.next_level(cycles._level(13))  # 2,282 parents
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("fault", ["raise", "truncate"])
def test_a_failing_worker_raises_and_leaves_no_child(monkeypatch, fault):
    parents = cycles._level(13)
    grow = kernels._grow

    def failing(words):
        # slice 0, grown by the calling process, holds parents[0]
        if parents[0] in words:
            return grow(words)
        if fault == "raise":
            raise ValueError("worker fails")
        return grow(words)[:-1]

    two_cpus(monkeypatch)
    monkeypatch.setattr(kernels, "_grow", failing)
    with pytest.raises(RuntimeError, match="worker"):
        kernels.next_level(parents)
    assert_no_child_left()


def test_an_interrupted_parent_kills_its_workers(monkeypatch):
    parents = cycles._level(13)
    grow = kernels._grow

    def interrupted(words):
        if parents[0] in words:
            raise KeyboardInterrupt
        return grow(words)

    two_cpus(monkeypatch)
    monkeypatch.setattr(kernels, "_grow", interrupted)
    with pytest.raises(KeyboardInterrupt):
        kernels.next_level(parents)
    assert_no_child_left()


@pytest.mark.parametrize("setting", ["one CPU", "no fork", "second thread"])
def test_next_level_stays_in_one_process(monkeypatch, setting):
    parents = cycles._level(13)

    def no_fork():
        raise AssertionError("next_level forked")

    cpus = {0} if setting == "one CPU" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    if setting == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if setting == "second thread":
        thread.start()
    try:
        assert kernels.next_level(parents) == cycles._level(14)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()


def test_workers_flush_no_buffered_output_and_run_no_atexit():
    # stdout is a pipe, so "before" sits in the buffer when next_level forks
    code = (
        "import atexit, os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from quiddity import cycles\n"
        "atexit.register(print, 'atexit')\n"
        "print('before', end=' ')\n"
        "print(len(cycles._level(15)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before 24834\natexit\n"
    assert proc.stderr == ""


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
                    verdict = kernels._is_least_rotation(bytes(r))
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
