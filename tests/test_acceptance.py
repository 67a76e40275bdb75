"""Acceptance gate: the ten verification criteria, exact everywhere.

Each test runs one criterion end to end and prints its one-line
pass/fail report.  Tolerance is zero: a criterion fails if any checked
case deviates at all or if its runtime cap is exceeded.  Runtimes are
measured with a monotonic clock, so a stepped wall clock cannot move a
criterion across its cap.
"""
import pytest

from leakyhurwitz.verify import ALL_CRITERIA, format_report

RUNTIME_CAPS_MS = {
    1: 60_000,
    2: 10_000,
    3: 300_000,
    4: 120_000,
    5: 300_000,
    6: 300_000,
    7: 300_000,
    8: 60_000,
    9: 120_000,
    10: 180_000,
}


# the oracle sweep and the genus-zero grid; `pytest -m "not slow"`
# leaves them out for a quick local run
SLOW = {3, 10}


@pytest.mark.parametrize(
    "number",
    [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n
     for n in sorted(ALL_CRITERIA)],
    ids=lambda n: f"criterion-{n:02d}")
def test_criterion(number):
    report = ALL_CRITERIA[number]()
    line = format_report(report)
    print(line)
    assert report.elapsed_ms < RUNTIME_CAPS_MS[number], line
    assert report.ok, line
