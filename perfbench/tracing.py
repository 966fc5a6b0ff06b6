"""Spans and counts recorded around the public functions of ``quiddity``.

``Tracer.install`` replaces each public function of the package's modules
by a timing wrapper, in every module namespace that binds the function
(``charseq.m_value``, ``affine.walk``, the package root, ...), so calls the
library makes internally are seen too.  Nothing in the library changes on
disk.  Spans and counts stay in memory and are written out by ``dump``.

A span is (id, name, start, end, parent id).  Calls to the functions in
``HOT`` happen too often to keep one record each: they are timed and
counted, and their time is taken out of their caller's self time, but
only the spans of the other functions are stored.  A layer's self time is
the duration of its spans minus the time covered by their direct child
spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

LAYERS = ("kernels", "cycles", "localdesc", "scalars", "charseq", "affine")
KERNELS = ("canonical_form", "insert_fanout", "cyclic_contains", "linear_contains")

HOT = frozenset(
    [f"kernels.{k}" for k in KERNELS]
    + [
        "cycles.canonicalize", "cycles.contains_cyclic", "cycles.contains_linear",
        "cycles.eta", "cycles.eta_product", "cycles.is_quiddity", "cycles.xi",
        "localdesc.delta", "localdesc.iota", "localdesc.psi", "localdesc.rho",
        "scalars.m_value", "scalars.parse_scalar",
        "charseq.minimal_period", "charseq.sigma1", "charseq.sigma2",
        "affine.cor15_check", "affine.decompose_affine",
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.callers: Counter = Counter()  # (name, caller name) -> calls
        self.seconds: defaultdict = defaultdict(float)  # name -> inclusive s
        self.self_s: defaultdict = defaultdict(float)  # layer -> self s
        self.counts: Counter = Counter()
        self.classes: dict[int, int] = {}  # length -> classes enumerated
        self.decompose_misses = 0
        self._stack: list[list] = []
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        keep = name not in HOT
        stack, spans, callers = self._stack, self.spans, self.callers
        seconds, self_s = self.seconds, self.self_s
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_id
            # frame: child seconds, id children attach to, name
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                d = end - start
                if parent is not None:
                    parent[0] += d
                callers[(name, parent[2] if parent else None)] += 1
                seconds[name] += d
                self_s[layer] += d - frame[0]
                if keep:
                    spans.append((span_id, name, start, end, parent_id))

        traced.__wrapped__ = fn
        return traced

    def _count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap the package's public functions and the kernel dispatchers,
        and count DihedralCycle comparisons and Scalar constructions."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS + ("cli",)
        ]
        kernels = modules[1]
        originals = {}
        for attr in package.__all__:
            obj = getattr(package, attr)
            if callable(obj) and not isinstance(obj, type):
                layer = obj.__module__.rsplit(".", 1)[-1]
                originals[id(obj)] = (f"{layer}.{attr}", obj)
        for attr in KERNELS:
            obj = getattr(kernels, attr)
            originals[id(obj)] = (f"kernels.{attr}", obj)
        wrappers = {key: self.wrap(name, obj) for key, (name, obj) in originals.items()}
        enumerate_cycles = wrappers[id(package.enumerate_cycles)]
        wrappers[id(package.enumerate_cycles)] = self._record_classes(enumerate_cycles)
        decompose = package.decompose_affine
        wrappers[id(decompose)] = self._record_misses(wrappers[id(decompose)], decompose)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
        cyc, sca = package.DihedralCycle, package.Scalar
        cyc.__lt__ = self._count_calls("cycles.compare", cyc.__lt__)
        sca.__init__ = self._count_calls("scalars.scalar_new", sca.__init__)

    def _record_classes(self, fn):
        classes = self.classes

        def enumerate_cycles(n, *args, **kwargs):
            out = fn(n, *args, **kwargs)
            classes[n] = len(out)
            return out

        return enumerate_cycles

    def _record_misses(self, fn, cached):
        tracer = self

        def decompose_affine(*args, **kwargs):
            before = cached.cache_info().misses
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.decompose_misses += cached.cache_info().misses - before

        return decompose_affine

    # -- results -----------------------------------------------------------

    def calls(self, name: str, caller: str | None = ...) -> int:
        return sum(
            v for (n, c), v in self.callers.items() if n == name and (caller is ... or c == caller)
        )

    def metrics(self, covered: int, triples_decided: int) -> dict[str, float]:
        """Per-layer figures.  ``covered`` is the number of classes the
        verify_cover calls found covered by a pattern, ``triples_decided``
        the number of distinct triples the sweeps must decide."""
        out: dict[str, float] = {}
        for k in KERNELS:
            out[f"kernels.{k}.calls"] = self.calls(f"kernels.{k}")
            out[f"kernels.{k}.s"] = self.seconds[f"kernels.{k}"]
        out["cycles.enumerate_cycles.s"] = self.seconds["cycles.enumerate_cycles"]
        out["cycles.classes"] = sum(self.classes.values())
        out["cycles.compare.calls"] = self.counts["cycles.compare"]
        out["cycles.is_quiddity.calls"] = self.calls("cycles.is_quiddity")
        out["cycles.is_quiddity.s"] = self.seconds["cycles.is_quiddity"]
        for f in ("verify_cover", "verify_thm_subseqs", "theorem_step"):
            out[f"localdesc.{f}.s"] = self.seconds[f"localdesc.{f}"]
        for f in ("rho_preimages", "delta_preimages"):
            out[f"localdesc.{f}.calls"] = self.calls(f"localdesc.{f}")
            out[f"localdesc.{f}.s"] = self.seconds[f"localdesc.{f}"]
        tests = self.calls("kernels.cyclic_contains", "localdesc.verify_cover")
        out["localdesc.cover_hit_ratio"] = covered / tests if tests else 0.0
        out["scalars.m_value.calls"] = self.calls("scalars.m_value")
        out["scalars.m_value.s"] = self.seconds["scalars.m_value"]
        out["scalars.scalar_new"] = self.counts["scalars.scalar_new"]
        walks = self.calls("charseq.walk")
        out["charseq.walk.calls"] = walks
        out["charseq.walk.s"] = self.seconds["charseq.walk"]
        out["charseq.sigma.calls"] = self.calls("charseq.sigma1") + self.calls("charseq.sigma2")
        out["charseq.solve_triples.s"] = self.seconds["charseq.solve_triples"]
        out["charseq.triples_per_walk"] = triples_decided / walks if walks else 0.0
        for f in ("classify_mu", "check_generic_rows"):
            out[f"affine.{f}.s"] = self.seconds[f"affine.{f}"]
        out["affine.decompose_affine.calls"] = self.calls("affine.decompose_affine")
        out["affine.decompose_affine.misses"] = self.decompose_misses
        out["affine.cor15_check.calls"] = self.calls("affine.cor15_check")
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def dump(self, path) -> None:
        """Write spans and call counts as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"id": i, "name": n, "start": s, "end": e, "parent": p}
                        for (i, n, s, e, p) in self.spans
                    ],
                    "calls": [
                        {"name": n, "caller": c, "calls": v} for (n, c), v in self.callers.items()
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )
