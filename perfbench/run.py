#!/usr/bin/env python3
"""Benchmark of the quiddity library and CLI.

    python3 perfbench/run.py --workload {cycles,refine,walks} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``./src``.  A run first starts the interpreter several times to time
``import quiddity``, then repeats whole rounds while another one fits in
``--seconds`` (at least one).  A round is one fresh worker process that
makes the workload's library calls, followed by the workload's CLI
commands, one subprocess at a time.  Every output is checked against an
independent computation.  Every end-to-end time is corrected for the
host's speed by ``pace``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(means over the rounds for the timed work, medians for set-up and RSS);
with ``--trace 1`` each round adds a second, traced worker and the line
reports the per-layer metrics instead.  The
line before it is the run record (backend, Python, cores, seeds, every
round); the same record and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15
#: Every process the run starts is killed this many seconds after
#: ``--seconds`` have passed, so a run that hangs still ends, with its
#: operations failed.  It is far longer than a round takes.
HANG_MARGIN_S = 120.0
CLI_SUBCOMMANDS = ("enumerate", "verify-cover", "cover-step", "classify", "generic", "solve")


class BenchError(Exception):
    pass


def start_worker(env, extra, root, deadline) -> dict:
    """Run worker.py and return its JSON line."""
    before = pace.probe()
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, capture_output=True, text=True, timeout=max(deadline - t0, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {extra} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {extra} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["measured_setup_s"] = out["setup_s"]
    out["setup_s"] = pace.corrected(out["setup_s"], before, pace.probe())
    if not Path(out["module"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported quiddity from {out['module']}, not from {root / 'src'}")
    return out


def run_cli(cli, env, root, summary, errfile, deadline) -> dict:
    """One CLI subprocess, timed from start until its stdout closes and
    corrected by the ``pace`` probes around it."""
    before = pace.probe()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "quiddity.cli", *cli.argv],
        stdout=subprocess.PIPE,
        stderr=errfile,
        env=env,
        cwd=root,
    )
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        seconds = time.monotonic() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    after = pace.probe()
    code = proc.returncode
    try:
        doc = json.loads(stdout) if stdout.strip() else None
    except ValueError:
        doc = None
    problems = [] if code == cli.expect else [f"exit code {code}, expected {cli.expect}"]
    try:
        problems += cli.check(doc, summary)
    except Exception as exc:  # a malformed document fails its operation
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return {
        "name": cli.name,
        "subcommand": cli.subcommand,
        "s": pace.corrected(seconds, before, after),
        "measured_s": seconds,
        "exit": code,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "stdout_bytes": len(stdout),
        "problems": problems,
    }


def run_round(workload, args, env, root, work, traced_file, deadline) -> dict:
    extra = ["--workload", workload.name, "--seed", str(args.seed)]
    rnd = {}
    try:
        rnd["worker"] = start_worker(env, extra, root, deadline)
    except BenchError as exc:
        rnd["worker"] = {"error": str(exc), "ops": [], "summary": {}}
    summary = rnd["worker"]["summary"]
    with open(work / "cli-stderr.txt", "w+b") as errfile:
        rnd["cli"] = [run_cli(c, env, root, summary, errfile, deadline) for c in workload.cli(work)]
    if traced_file is not None:
        try:
            rnd["traced"] = start_worker(env, extra + ["--trace", str(traced_file)], root, deadline)
        except BenchError as exc:
            rnd["traced"] = {"error": str(exc), "ops": []}
    return rnd


def round_ops(workload, rnd) -> list[tuple[str, list[str]]]:
    """(operation, problems) for every operation the round attempted; a
    worker that died fails all its library calls."""
    worker = rnd["worker"]
    if "error" in worker:
        names = [name for name, _ in workload.plan(None, random.Random(0))]
        lib = [(name, [worker["error"]]) for name in names]
    else:
        lib = [(op["name"], op["problems"]) for op in worker["ops"]]
    return lib + [(c["name"], c["problems"]) for c in rnd["cli"]]


def layer_metrics(rnd) -> dict[str, float]:
    traced, worker = rnd["traced"], rnd["worker"]
    out = dict(traced["layers"])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = sum(c["s"] for c in rnd["cli"] if c["subcommand"] == sub)
    out["cli.peak_rss_mib"] = max(c["rss_mib"] for c in rnd["cli"])
    out["cli.stdout_bytes"] = sum(c["stdout_bytes"] for c in rnd["cli"])
    out["trace.overhead_s"] = traced["wall_s"] - worker["wall_s"]
    return out


def declared_metrics(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run, with
    their units."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "quiddity" / "__init__.py").is_file():
        print(f"error: no quiddity sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    hash_seed = args.seed % 2**32
    env = dict(os.environ)
    env.pop("QUIDDITY_SELF_CHECK", None)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(hash_seed))

    out_dir = root / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.seconds + HANG_MARGIN_S
    try:
        workload.setup_files(work)
        probes = [start_worker(env, ["--probe"], root, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        rounds = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            traced_file = out_dir / f"spans-{tag}-round{len(rounds)}.json" if args.trace else None
            rounds.append(run_round(workload, args, env, root, work, traced_file, deadline))
            now = time.monotonic()
            if now - start + (now - began) > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rnd in rounds for op in round_ops(workload, rnd)]
    failed = [name for name, problems in ops if problems]
    traced_ok = all(
        "error" not in rnd["traced"] and not any(op["problems"] for op in rnd["traced"]["ops"])
        for rnd in rounds
        if "traced" in rnd
    )
    correct = traced_ok and set(failed) <= workload.known_faults
    complete = [r for r in rounds if "error" not in r["worker"]]
    if args.trace:
        complete = [r for r in complete if "error" not in r["traced"]]
    if not complete:
        print("error: no round completed", file=sys.stderr)
        return 1

    if args.trace:
        per_round = [layer_metrics(r) for r in complete]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    else:
        # A run holds only three to nine rounds: the mean over the rounds
        # uses all of the run's measured time, where a median keeps one.
        values = {
            "wall_s": statistics.mean(r["worker"]["wall_s"] for r in complete),
            "setup_s": statistics.median(probes),
            "peak_rss_mib": statistics.median(r["worker"]["rss_mib"] for r in complete),
            "cli_s": statistics.mean(sum(c["s"] for c in r["cli"]) for r in complete),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics(args.trace)}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "sample_seed": args.seed,
        "pythonhashseed": hash_seed,
        "backend": complete[0]["worker"]["backend"],
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes_s": probes,
        "rounds": rounds,
        "failed_ops": failed,
        "metrics": metrics,
    }
    with open(out_dir / f"record-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    brief = {
        k: record[k]
        for k in ("workload", "seed", "sample_seed", "pythonhashseed", "backend", "python", "cores")
    }
    brief["rounds"] = len(rounds)
    brief["failed_ops"] = sorted(set(failed))
    print("record " + json.dumps(brief))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
