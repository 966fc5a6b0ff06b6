"""Host-speed correction of the timed work.

The speed of the reference host drifts by up to 1.5x, within seconds and
over minutes, and it slows a fixed pure-Python loop as much as it slows the
library: process CPU time drifts with it, so it is no way out.  So every
timed piece of work (a library call, a CLI subprocess, an interpreter
start) is bracketed by two probes of a fixed pure-Python job that uses
nothing of ``quiddity``, and its time is scaled by how much slower than
``REF_S`` the probes ran:

    corrected = measured * REF_S / mean(probe before, probe after)

The corrected time is what the work would have taken at the reference
speed.  A change to the library leaves the probe alone, so a faster library
gives a proportionally smaller corrected time.  The measured times are kept
in the run record next to the corrected ones.
"""

import time

#: Probe time at the reference speed: the median probe on the reference
#: host (perfbench/README.md), so corrected times read as seconds there.
REF_S = 0.0055


def _job() -> int:
    """Tuple rotation, dict update and int arithmetic, as the library does."""
    seen = {}
    for i in range(2500):
        t = (i % 7, i % 11, i % 13, i % 5)
        r = min(t[k:] + t[:k] for k in range(4))
        seen[r] = seen.get(r, 0) + 1
    return len(seen)


def probe() -> float:
    """Seconds the job takes now: the fastest of three tries, so that one
    preemption does not count as a slow host."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - t)
    return best


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, scaled
    to the reference speed."""
    return seconds * REF_S * 2.0 / (before + after)
