"""One timed round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --t0 T --probe
    python3 perfbench/worker.py --t0 T --workload NAME --seed N [--trace FILE]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``
and passes its CLOCK_MONOTONIC reading taken just before the start in
``--t0``, so ``setup_s`` spans interpreter start through ``import
quiddity``.  The round runs the workload's library calls, times them as
one block, reads the peak RSS, and only then checks the outputs.  It
prints one JSON line.
"""

import sys
import time

import quiddity

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import pace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_round(name: str, seed: int, trace_path: str | None) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    ops = workload.plan(quiddity, rng)
    tracer = None
    if trace_path:
        tracer = Tracer()
        tracer.install(quiddity)
    results, errors, op_s, op_ref_s = {}, {}, {}, {}
    clock = time.perf_counter
    before = pace.probe()
    for op_name, fn in ops:
        t = clock()
        try:
            results[op_name] = fn(results)
        except Exception:  # an operation that raises counts as failed
            errors[op_name] = traceback.format_exc(limit=-3)
        op_s[op_name] = clock() - t
        after = pace.probe()
        op_ref_s[op_name] = pace.corrected(op_s[op_name], before, after)
        before = after
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {op_name: [msg] for op_name, msg in errors.items()}
    try:
        for op_name, found in workload.check(quiddity, results, rng).items():
            problems.setdefault(op_name, []).extend(found)
        summary = workload.summary(quiddity, results)
    except Exception:  # a result too broken to check fails its round
        for op_name, _ in ops:
            problems.setdefault(op_name, []).append(traceback.format_exc(limit=-3))
        summary = {}
    out = {
        "wall_s": sum(op_ref_s.values()),
        "measured_wall_s": sum(op_s.values()),
        "rss_mib": rss_mib,
        "ops": [
            {"name": n, "s": op_ref_s[n], "measured_s": op_s[n], "problems": problems.get(n, [])}
            for n, _ in ops
        ],
        "summary": summary,
        "backend": quiddity.kernels.backend(),
    }
    if tracer is not None:
        covered, decided = workload.trace_facts(quiddity, results)
        out["layers"] = tracer.metrics(covered, decided)
        tracer.dump(trace_path)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()
    out = {"setup_s": IMPORTED - args.t0, "module": quiddity.__file__}
    if not args.probe:
        out.update(run_round(args.workload, args.seed, args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
