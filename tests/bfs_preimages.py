"""Breadth-first reverse rewriting for ``delta``: the search that
``localdesc.delta_preimages`` replaced, kept as the reference that the
direct generation is checked against."""

from collections import deque

from quiddity import kernels
from quiddity.cycles import DihedralCycle, canonicalize
from quiddity.localdesc import in_a_prime


def bfs_delta_preimages(target):
    """All classes in the domain of ``delta`` that normalize to ``target``.

    Reverse rewriting collapses any cyclic window (x,1,y) with x,y >= 3 to
    (x-1,y-1); windows may wrap, which also inverts the boundary rule.
    As for ``rho_preimages``, each step undoes a forward split and the
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
