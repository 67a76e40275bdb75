"""The benchmark's own selftest, run as a test.

It plants a wrong value in every kind of pass, a small table-cache cold
pass included, and requires each to come back as one failed operation.
So a change to the table's output, or to a library name the benchmark
calls, fails here before a benchmark run.
"""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
