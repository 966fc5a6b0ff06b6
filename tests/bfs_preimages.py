"""The rewriting loops and breadth-first preimage searches that
``localdesc`` replaced by one split pass and one collapse-set generator,
kept as the references that those are checked against: ``loop_rho`` and
``loop_delta`` apply one split at a time from the left until none
applies; ``bfs_rho_preimages`` and ``bfs_delta_preimages`` reverse single
splits breadth-first."""

from collections import deque

from quiddity import kernels
from quiddity.cycles import DihedralCycle, as_pattern, canonicalize
from quiddity.localdesc import in_a_prime


def loop_rho(seq):
    """Normal form of a linear sequence under three rewriting rules:
    pad a first entry > 1 with a leading 1 (incrementing it), split the
    leftmost adjacent pair with both entries > 1 by an inserted 1
    (incrementing both), pad a last entry > 1 with a trailing 1, with
    that priority at the leftmost position."""
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


def loop_delta(cyc):
    """``delta`` on a class: split the leftmost adjacent pair of the
    canonical word with both entries > 1, else the wraparound pair, until
    none remains; returns the canonical word of the image."""
    s = list(canonicalize(cyc).canon)
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


def bfs_rho_preimages(target):
    """All sequences whose ``rho`` normal form is ``target``, a normal form.

    Breadth-first reverse rewriting: collapse (x,1,y) with x,y >= 3 to
    (x-1,y-1), strip a leading (1,x) with x >= 3 to (x-1), strip a
    trailing (x,1) with x >= 3 to (x-1).  Every reverse step shortens the
    sequence, so the search is finite.  Each one undoes a forward rule
    whose precondition holds, since x-1 >= 2, and the rules are confluent,
    so every sequence reached normalizes to ``target``.
    """
    t = as_pattern(target)
    seen = {t}
    queue = deque([t])
    while queue:
        s = queue.popleft()
        preds = []
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


def bfs_delta_preimages(target):
    """All classes in the domain of ``delta`` that normalize to ``target``.

    Reverse rewriting collapses any cyclic window (x,1,y) with x,y >= 3 to
    (x-1,y-1); windows may wrap, which also inverts the boundary rule.
    As for ``bfs_rho_preimages``, each step undoes a forward split and the
    splits are confluent, so every class reached normalizes to ``target``.
    None is <0,0> or <1,1,1>, where ``delta`` is not defined: the target
    has even length >= 4, and each step leaves two entries >= 2.
    """
    tgt = canonicalize(target)
    if not in_a_prime(tgt):
        raise ValueError(f"target not in the ear-doubled image: {tgt}")
    seen = {tgt.canon}
    queue = deque([tgt.canon])
    while queue:
        s = queue.popleft()
        n = len(s)
        for i in range(n):
            if s[i] == 1 and s[i - 1] >= 3 and s[(i + 1) % n] >= 3:
                rest = s[i + 1 :] + s[:i]
                p = kernels.canonical_form((rest[0] - 1,) + rest[1:-1] + (rest[-1] - 1,))
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
    return frozenset(map(DihedralCycle._from_canon, seen))
