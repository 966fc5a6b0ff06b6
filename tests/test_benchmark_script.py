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


@pytest.fixture(scope="module")
def record():
    """One run of the script at --length 8, shared by the tests below."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(ROOT), "--length", "8", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_kernels_runs(record):
    assert list(record) == [
        "python", "cores", "enumeration_cpus", "backend", "length", "repeat", "figures",
    ]
    assert record["backend"] == "python"
    assert record["length"] == 8 and record["repeat"] == 1
    assert 1 <= record["enumeration_cpus"] <= record["cores"]
    assert list(record["figures"]) == [
        "canonical_form(w) x20k",
        "next_level(_level(7))",
        "sorted(_grow(_level(7)))",
        "m_value(a, b) x2k",
        "enumerate_cycles(8) cold",
        "verify_cover(cor12, 8)",
        "verify_cover(depth-3 refined, 8)",
        "verify_thm_subseqs(8)",
        "classify_mu(8) cold",
        "solve_triples((2,2,5), 8) cold",
        "solve_triples((2,2,5), 8) after classify_mu(8)",
        "check_generic_rows(48)",
        "cli enumerate --length 8 --json",
        "cli cover-step 3 from builtin:base --json",
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
    for f in record["figures"].values():
        assert list(f) == ["s", "peak_rss_mib", "children_peak_rss_mib"]
        assert f["s"] >= 0 and f["peak_rss_mib"] > 0 and f["children_peak_rss_mib"] >= 0


def test_sweep_record_runs(record):
    assert record["backend"] == "python" and record["repeat"] == 1
    assert 1 <= record["enumeration_cpus"] <= record["cores"]
    assert list(record["figures"])[-len(SWEEP_ROWS):] == SWEEP_ROWS
    assert all(record["figures"][name]["s"] >= 0 for name in SWEEP_ROWS)
    assert all(record["figures"][name]["peak_rss_mib"] > 0 for name in SWEEP_ROWS)


def test_rows_of_both_kinds_run_once():
    spec = importlib.util.spec_from_file_location("benchmark_kernels", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert len(script.rows(8)) == 24
    assert len(script.rows(15)) == 22  # both covers to 15
    assert len(script.rows(24)) == 21  # classify_mu(24) and both solve_triples at 24
    # a row of both kinds keeps its place among the length rows
    assert list(script.rows(13)).index("verify_thm_subseqs(13)") == 7
