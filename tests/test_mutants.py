"""Each criterion can fail: a fault on record is planted with monkeypatch
and the criterion that should catch it must report failures.

Every case also runs its check on the unplanted library, which must pass
clean, so a case that fails names the fault rather than the library.
"""
from leakyhurwitz import numbers, verify
from leakyhurwitz.fock import connected_hurwitz
from leakyhurwitz.series import Q


def connected_sweep():
    """Criterion 3's connected half on a smaller grid, the inversion's
    memo cleared first so no value from another oracle carries over."""
    numbers._connected_fock.cache_clear()
    return verify.oracle_sweep(5, 2, connected_hurwitz,
                               numbers._connected_fock)


def test_criterion_3_finds_empty_side_rests_read_as_zero(monkeypatch):
    checked, failures = connected_sweep()
    assert checked == 5878 and failures == []
    rest = numbers._oracle_rest
    with monkeypatch.context() as m:
        m.setattr(numbers, "_oracle_rest", lambda mu, nu, k, r, s: (
            rest(mu, nu, k, r, s) if mu and nu else Q(0)))
        try:
            checked, failures = connected_sweep()
        finally:
            numbers._connected_fock.cache_clear()
    assert checked == 5878 and failures
