"""Smoke test of the kernel and pipeline timing script."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "benchmark_kernels.py"

#: The rows of the former benchmarks/sweep_record.py, which every record
#: ends with whatever its --length.
SWEEP_ROWS = [
    "classify_mu(24) cold",
    "classify_mu(40) cold",
    "classify_mu(48) cold",
    "solve_triples((2,2,5), 12) cold",
    "solve_triples((2,2,5), 12) after classify_mu(12)",
    "solve_triples((2,2,5), 24) cold",
    "solve_triples((2,2,5), 24) after classify_mu(24)",
    "verify_cover(cor12, 15)",
    "verify_cover(depth-3 refined, 15)",
    "verify_thm_subseqs(13)",
]


#: The rows that time one subprocess from start to exit.
PROCESS_ROWS = [
    "process python -c pass",
    "process python -m quiddity.cli check --cycle 1,1,1",
]


@pytest.fixture(scope="module")
def record():
    """One run of the script at --length 8 on this checkout given twice,
    shared by the tests below."""
    src = ["--src", str(ROOT)]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *src, *src, "--length", "8", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_kernels_runs(record):
    assert list(record) == ["python", "cores", "length", "repeat", "checkouts"]
    assert record["length"] == 8 and record["repeat"] == 1
    assert [c["src"] for c in record["checkouts"]] == [str(ROOT)] * 2
    for checkout in record["checkouts"]:
        assert list(checkout) == ["src", "backend", "enumeration_cpus", "figures"]
        assert checkout["backend"] == "python"
        assert 1 <= checkout["enumeration_cpus"] <= record["cores"]
        assert_figures(checkout["figures"])


def assert_figures(figures):
    assert list(figures) == [
        "canonical_form(w) x20k",
        "_level(8) after _level(7)",
        "_level(8) after _level(7), one process",
        "m_value(a, b) x2k",
        "_reflect(n, s, left) x10k",
        "enumerate_cycles(8) cold",
        "verify_cover(cor12, 8)",
        "verify_cover(depth-3 refined, 8)",
        "verify_thm_subseqs(8)",
        "classify_mu(8) cold",
        "_swept(8) cold",
        "classify_mu(8) after _swept(8)",
        "solve_triples((2,2,5), 8) cold",
        "solve_triples((2,2,5), 8) after classify_mu(8)",
        "check_generic_rows(48)",
        "cli enumerate --length 8 --json",
        "cli cover-step 3 from builtin:base --json",
        *PROCESS_ROWS,
        "theorem_step(depth-2 pair)",
        "rho_preimages(alternating, k=10)",
        "classify_mu(24) cold",
        "classify_mu(40) cold",
        "classify_mu(48) cold",
        "solve_triples((2,2,5), 12) cold",
        "solve_triples((2,2,5), 12) after classify_mu(12)",
        "solve_triples((2,2,5), 24) cold",
        "solve_triples((2,2,5), 24) after classify_mu(24)",
        "verify_cover(cor12, 15)",
        "verify_cover(depth-3 refined, 15)",
        "verify_thm_subseqs(13)",
    ]
    for f in figures.values():
        assert list(f) == ["s", "peak_rss_mib", "children_peak_rss_mib"]
        assert f["s"] >= 0 and f["peak_rss_mib"] > 0 and f["children_peak_rss_mib"] >= 0
    for name in PROCESS_ROWS:  # a whole interpreter starts and exits in the call
        assert figures[name]["s"] > 0.001 and figures[name]["children_peak_rss_mib"] > 0


def test_sweep_record_runs(record):
    assert record["repeat"] == 1
    for checkout in record["checkouts"]:
        assert checkout["backend"] == "python"
        assert 1 <= checkout["enumeration_cpus"] <= record["cores"]
        figures = checkout["figures"]
        assert list(figures)[-len(SWEEP_ROWS):] == SWEEP_ROWS
        assert all(figures[name]["s"] >= 0 for name in SWEEP_ROWS)
        assert all(figures[name]["peak_rss_mib"] > 0 for name in SWEEP_ROWS)


def load_script():
    spec = importlib.util.spec_from_file_location("benchmark_kernels", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_checkouts_alternate_process_by_process(monkeypatch, capsys):
    script = load_script()
    calls, compiled = [], []

    def child(src, setup, call):
        assert compiled == [Path("a"), Path("b")]  # every checkout, before any row
        calls.append((str(src), call))
        s = len(calls) / 1000  # the first process of each checkout is its best
        figure = {"s": s, "peak_rss_mib": 1.0, "children_peak_rss_mib": 0.0}
        return {"figure": figure, "backend": "python", "enumeration_cpus": 1}

    monkeypatch.setattr(script, "byte_compile", compiled.append)
    monkeypatch.setattr(script, "run_child", child)
    assert script.main(["--src", "a", "--src", "b", "--length", "8", "--repeat", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(calls) == 6 * len(script.rows(8))
    for i, (_, call) in enumerate(script.rows(8).values()):
        row = calls[i * 6 : i * 6 + 6]
        assert [src for src, _ in row] == ["a", "b", "b", "a", "a", "b"]
        assert {c for _, c in row} == {call}
    a, b = record["checkouts"]
    assert (a["src"], b["src"]) == ("a", "b")
    assert a["figures"]["canonical_form(w) x20k"]["s"] == 0.001
    assert b["figures"]["canonical_form(w) x20k"]["s"] == 0.002


def test_rows_of_both_kinds_run_once():
    script = load_script()
    assert len(script.rows(8)) == 31
    assert len(script.rows(15)) == 29  # both covers to 15
    assert len(script.rows(24)) == 28  # classify_mu(24) and both solve_triples at 24
    # a row of both kinds keeps its place among the length rows
    assert list(script.rows(13)).index("verify_thm_subseqs(13)") == 8
    # the step rows call only what every commit has: _level and _jobs
    assert script.rows(13)["_level(13) after _level(12)"] == (
        "cycles._level(12)", "cycles._level(13)"
    )
    assert script.rows(13)["_level(13) after _level(12), one process"] == (
        "cycles._level(12)\nkernels._jobs = lambda parents: 1", "cycles._level(13)"
    )
    # the sweep and the fold of classify_mu(13) apart, the fold over a
    # sweep left by the set-up
    assert script.rows(13)["_swept(13) cold"] == (
        "from quiddity import charseq", "charseq._swept(13)"
    )
    assert script.rows(13)["classify_mu(13) after _swept(13)"] == (
        "from quiddity import charseq\ncharseq._swept(13)", "classify_mu(13)"
    )


def test_checkouts_are_byte_compiled(tmp_path):
    copy = tmp_path / "checkout"
    (copy / "src" / "pkg").mkdir(parents=True)
    (copy / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    load_script().byte_compile(copy)
    assert list((copy / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))
