"""The hot inner loops, in pure Python.

``next_level`` is the inner loop of the enumeration: it grows a level,
one blob of sorted canonical quiddity words, into the next such blob by
canonical augmentation, keeping a child only when its least rotation
starts at the inserted ear, and builds no tuple.  ``_grow`` reads the
new ear's reading r straight off the parent's canonical word b and
decides most children by two rules: r < b keeps the child, since every
old ear then reads greater than b; for an edge away from ear 0, r not
starting with the prefix of b that ear 0 still reads, or that reading
smaller than r, rejects it.  The rest go to the rotation scan
``_is_least_rotation``.  Every entry must fit in a byte, which holds up
to length 257, far past the enumeration bound
``cycles.DEFAULT_MAX_LENGTH``.  Each class has one parent, so a level of
2,000 parents or more grows as one fork-join: forked children grow
interleaved parents of the blob they inherit with the same per-parent
loop ``_grow`` and send their words back through pipes.  It stays in one
process where ``os.fork`` is missing, on one CPU, or while another
thread is alive, and no child outlives the call.
``canonical_form`` and ``insert_fanout`` serve single cycles
(``DihedralCycle``, ``ear_insert``, ``delta_preimages``) and are the
references that the tests check ``_is_least_rotation`` and
``next_level`` against; the two containment scans serve
single-pattern searches (``contains_cyclic``, ``contains_linear``,
``cor15_check``).  ``verify_cover`` and ``verify_thm_subseqs`` use
none of them: the first searches each class with one byte-trie regular
expression of its patterns, the second ranks the cyclic windows of each
class through a table of patterns and counts the representatives from
the class's symmetries.
"""

from __future__ import annotations

import os


def backend() -> str:
    """Name of the kernel implementation, recorded by the benchmark."""
    return "python"


def canonical_form(seq: tuple) -> tuple:
    """Lexicographically least tuple over all rotations of ``seq`` and of
    its reversal (the dihedral orbit of the cyclic word).

    The least rotation starts at an entry equal to ``min(seq)``, so only
    rotations from those entries are compared, in both directions.  For a
    quiddity cycle of length >= 3 these are its ears."""
    n = len(seq)
    if n == 0:
        return seq
    m = min(seq)
    d = seq + seq
    r = seq[::-1]
    dr = r + r
    return min(
        [d[i : i + n] for i in range(n) if seq[i] == m]
        + [dr[i : i + n] for i in range(n) if r[i] == m]
    )


def cyclic_contains(word: tuple, pat: tuple) -> bool:
    """True iff ``pat`` occurs as a consecutive run in the cyclic word
    ``word``, read in either direction.  A pattern longer than the word
    never matches; one of equal length matches iff it is a rotation or
    reflected rotation."""
    n, m = len(word), len(pat)
    if m > n or m == 0:
        return m == 0
    for rep in (word, word[::-1]):
        d = rep + rep
        for i in range(n):
            if d[i : i + m] == pat:
                return True
    return False


def linear_contains(seq: tuple, pat: tuple) -> bool:
    """Plain consecutive-subsequence test, no wraparound, given
    orientation only."""
    n, m = len(seq), len(pat)
    if m == 0:
        return True
    first = pat[0]
    for i in range(n - m + 1):
        if seq[i] == first and seq[i : i + m] == pat:
            return True
    return False


def insert_fanout(rep: tuple) -> list:
    """Canonical forms of every single-ear insertion into the cycle
    ``rep``: a 1 is inserted between each pair of cyclically adjacent
    entries and both neighbours are incremented.  ``ear_insert`` picks
    one of them; the tests grow whole levels from it as the reference
    for ``next_level``.  It stays in this module: the benchmark's tracer
    (``perfbench/tracing.py``) wraps it by name."""
    n = len(rep)
    out = []
    for i in range(n - 1):
        out.append(
            canonical_form(rep[:i] + (rep[i] + 1, 1, rep[i + 1] + 1) + rep[i + 2 :])
        )
    # wraparound edge: insert between the last and first entries
    out.append(canonical_form((rep[0] + 1,) + rep[1 : n - 1] + (rep[n - 1] + 1, 1)))
    return out


def _is_least_rotation(r: bytes) -> bool:
    """True iff the reading ``r`` of a quiddity word is its
    ``canonical_form``.

    ``r`` has length >= 4, so its least entry is 1 and no two 1s are
    adjacent, and it starts at an ear: r = (1, y, ...).  Every rotation
    of ``r`` or of its reversal that starts with (1, x), x < y, is
    smaller than ``r``; of those that start with (1, y), each is found
    by ``bytes.find`` and the scan stops at the first one smaller than
    ``r``."""
    m = len(r)
    d = r + r
    for x in range(2, r[1]):
        if bytes((1, x)) in d or bytes((x, 1)) in d:
            return False
    prefix = r[:2]
    for s in (d, d[::-1]):
        q = s.find(prefix, 0, m + 1)
        while q >= 0:
            if s[q : q + m] < r:
                return False
            q = s.find(prefix, q + 1, m + 1)
    return True


#: Parents per process when ``next_level`` forks: a level grows in
#: ``len(words) // _PARENTS_PER_JOB`` processes at most, so it forks from
#: 2,000 parents on, for lengths 14 and up (level 13 has 2,282 classes).
_PARENTS_PER_JOB = 1000


def next_level(level: bytes, k: int) -> bytes:
    """The level of length k + 1 grown from ``level``, that of length
    k >= 3: the sorted canonical words of every quiddity class of length
    k + 1 as one blob, laid out as in ``cycles._levels``.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998) gives each class of length k + 1 exactly one
    parent class, so ``_grow`` can grow disjoint slices of the parents
    apart and their children need no deduplication across slices.

    Every level grows as one fork-join over its parents (see
    ``_jobs``): ``jobs - 1`` forked children each grow the parents j,
    j + jobs, ... of the blob they inherit, write the words they grow
    back through a pipe as one blob of (k + 1)-byte words and leave by
    ``os._exit``, so they never flush inherited stdio buffers or run
    atexit handlers.  This process grows parents 0, jobs, ... meanwhile
    and appends each child's blob to its own as it arrives.  A child
    that exits non-zero or sends a blob that is not whole words makes
    the call raise ``RuntimeError``; whatever is raised, every child is
    killed and reaped before the call returns.  With one job, ``_grow``
    runs on all parents here and nothing is forked.  The words are
    sorted once, as ``bytes`` slices, and joined: no tuple is built.

    Every entry must fit in a byte, so k + 1 <= 257."""
    out = bytes(_fork_join(level, k, _jobs(len(level) // k)))
    words = sorted(out[i : i + k + 1] for i in range(0, len(out), k + 1))
    del out  # the words hold their own copies
    return b"".join(words)


def _jobs(parents: int) -> int:
    """How many processes grow a level from ``parents`` parents: one per
    ``_PARENTS_PER_JOB`` of them, at most one per CPU this process may
    run on (``os.sched_getaffinity``).  One where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, and one while a second thread
    is alive: a forked child holds only the calling thread, and the locks
    the others held stay locked in it."""
    jobs = parents // _PARENTS_PER_JOB
    if jobs < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    return min(jobs, len(os.sched_getaffinity(0)))


def _fork_join(level: bytes, k: int, jobs: int) -> bytearray:
    """The unsorted children of the k-byte words of ``level``: parents
    j, j + jobs, ... grown in a forked child for j >= 1, 0, jobs, ... here."""
    import signal

    live, reads = [], []  # children not yet reaped; read ends of their pipes
    try:
        for j in range(1, jobs):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:  # the child grows slice j, sends it and exits
                    code = 1
                    try:
                        with open(w, "wb") as pipe:
                            pipe.write(_grow(level, k, j, jobs))
                        code = 0
                    finally:
                        os._exit(code)
                live.append(pid)
            finally:
                os.close(w)
        out = _grow(level, k, 0, jobs)
        for pid, r in list(zip(live, reads)):
            with open(r, "rb", closefd=False) as pipe:
                blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            live.remove(pid)
            if status or len(blob) % (k + 1):
                raise RuntimeError(
                    f"next_level: worker {pid} ended with wait status {status} "
                    f"after sending {len(blob)} bytes of {k + 1}-byte words"
                )
            out += blob
            del blob  # before the next child's blob is read
        return out
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in reads:
            os.close(r)


def _grow(level: bytes, k: int, j: int, jobs: int) -> bytearray:
    """The children that canonical augmentation keeps of the parents j,
    j + jobs, ... of ``level``, a blob of k-byte words, as one blob of
    (k + 1)-byte words in no particular order.  Each parent is sliced off
    the blob in its turn, and its children go straight into the result,
    which is returned without a copy, so no object per parent or child
    outlives its turn.

    A child, a parent with one ear inserted on its edge (i, i + 1), is
    kept only if its least rotation starts at the new ear, read in either
    direction.  Removing that ear gives one parent class, so each class
    of length k + 1 comes from one parent only, and from two of its edges
    only when an automorphism of the parent maps one onto the other: a
    set per parent drops those duplicates.

    The parent's canonical word b = (1, x0, ...) is its least reading.
    The new ear between entries u and v reads r = (1, min(u, v) + 1, ...)
    from the parent alone: the incremented smaller neighbour, the other
    k - 2 entries of b read away from it, the other incremented
    neighbour; on a tie, toward u.  Most children are decided by
    comparing r with b:

    (1) r < b keeps the child unbuilt, since r is then its least
        reading.  An old ear reads as in the parent up to the first end
        of edge i it meets, where the child's entry is one larger, so it
        reads greater than its parent reading, which is at least b; the
        new ear's other direction starts (1, max(u, v) + 1), and is not
        less than r on a tie (below); every other reading starts >= 2.
    (2) Otherwise, for 0 < i < k - 1, ear 0 survives and the child read
        from it is b[:i] + (u + 1, 1, v + 1) + b[i + 2:].  The child is
        rejected if r does not start with b[:i], for then it is greater
        than that reading; this rejects it unbuilt when u, v >= x0 and
        i > 1, as r[1] > x0 = b[1].  Else it is rejected if that reading
        is smaller than r.

    The children left go to the rotation scan ``_is_least_rotation``:
    those on the two edges at ear 0, and those whose r starts with b[:i]
    and is at most the reading from ear 0.  Of the 105,392 children of
    the 7,528 classes of length 14, rule (1) keeps 21,588, rule (2)
    rejects 73,464 (38,195 of them unbuilt) and the scan decides 10,340.

    On a tie r is R_u, the reading toward u, even where the reading R_v
    toward v is less, and decides the same.  Lemma: a triangulated
    N-gon, N >= 4, has an ear next to a vertex in 2 triangles or a
    vertex in 3 triangles between two ears.  Let L = (p, e, q) end a
    longest dual path, with neighbour P = (p, q, r): if P has a polygon
    side, say (q, r), q lies in L and P only; else P's neighbour off the
    path is a leaf, say (q, e', r), and q lies in three triangles between
    the ears e and e'.  So every canonical word of length >= 4 starts
    (1, 2) or (1, 3, 1).  The parent (1, 1, 1) reads alike both ways; for
    k >= 4 a tie has u = v >= 2 and 0 < i < k - 1, and where R_v < R_u,
    R_v = (1, u + 1, b[(i + 2) % k], ...) is not the child's least
    reading: it starts (1, >= 4) for u >= 3; for u = 2 < x0 no ear of b
    is next to a 2, so b[(i + 2) % k] >= 2; for u = 2 = x0 only i = 1 is
    not rejected unbuilt, and there R_u = (1, 3, 1, ...) <= R_v.  Rule
    (1) cannot fire, as R_u < b would make R_v < b least, and rule (2)
    and the scan keep only a least reading."""
    out = bytearray()
    # head[x] = bytes((1, x)) and byte[x] = bytes((x,)) join each reading
    # from three pieces without a call per piece; built per call, so that
    # importing the module allocates none of them
    head = [bytes((1, x)) for x in range(256)]
    byte = [bytes((x,)) for x in range(256)]
    for p in range(j * k, len(level), jobs * k):
        b = level[p : p + k]
        bb = b + b
        x0 = b[1]
        kept = set()
        for i in range(k):
            u = b[i]
            v = bb[i + 1]
            if u >= x0 and v >= x0 and 1 < i < k - 1:
                continue
            mid = bb[i + 2 : i + k]  # the k - 2 entries after v, up to u
            if u > v:
                r = head[v + 1] + mid + byte[u + 1]
            else:
                r = head[u + 1] + mid[::-1] + byte[v + 1]
            if r < b:
                kept.add(r)
                continue
            if 0 < i < k - 1:
                if not r.startswith(b[:i]):
                    continue
                if b[:i] + bytes((u + 1, 1, v + 1)) + b[i + 2 :] < r:
                    continue
            if _is_least_rotation(r):
                kept.add(r)
        for r in kept:
            out += r
    return out
