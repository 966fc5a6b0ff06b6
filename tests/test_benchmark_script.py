"""Smoke test of the kernel and pipeline timing script."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "benchmark_kernels.py"


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
    assert "m_value x2k" in proc.stdout
    assert "enumerate to 8" in proc.stdout
    assert "cover check to 8" in proc.stdout
    assert "depth-3 cover to 8" in proc.stdout
    assert "verify_thm_subseqs(8)" in proc.stdout
    assert "classify_mu(8)" in proc.stdout
    assert "solve_triples((2,2,5), 8)" in proc.stdout
    assert "check_generic_rows(48)" in proc.stdout
