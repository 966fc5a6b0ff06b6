"""Smoke test of the kernel and pipeline timing script."""

import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPT = BENCHMARKS / "benchmark_kernels.py"


def test_benchmark_kernels_runs():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--length", "8", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("Python ") and lines[0].endswith(" cores")
    assert "canonical_form x20k" in proc.stdout
    assert "next_level into 8" in proc.stdout
    assert "next_level into 8, one process" in proc.stdout
    assert " enumeration on " in lines[0]
    assert "m_value x2k" in proc.stdout
    assert "enumerate to 8" in proc.stdout
    assert "cover check to 8" in proc.stdout
    assert "depth-3 cover to 8" in proc.stdout
    assert "verify_thm_subseqs(8)" in proc.stdout
    assert "classify_mu(8)" in proc.stdout
    assert "solve_triples((2,2,5), 8)" in proc.stdout
    assert "solve_triples((2,2,5), 8) after classify_mu(8)" in proc.stdout
    assert "check_generic_rows(48)" in proc.stdout


def test_sweep_record_runs():
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "sweep_record.py"), "--src", str(BENCHMARKS.parent),
         "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["backend"] == "python" and record["repeat"] == 1
    assert 1 <= record["enumeration_cpus"] <= record["cores"]
    assert list(record["figures"]) == [
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
    assert all(f["s"] >= 0 and f["peak_rss_mib"] > 0 for f in record["figures"].values())
