"""Each criterion can fail: a fault on record is planted with monkeypatch
and the criterion that should catch it must report failures.

Every case also runs its check on the unplanted library, which must pass
clean, so a case that fails names the fault rather than the library.
"""
import inspect

from leakyhurwitz import fock, numbers, verify
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


def test_criterion_9_finds_the_zero_energy_cut_on_disconnected_sequences(
        monkeypatch):
    # only a connected sequence is dead at a zero-energy prefix: in a
    # full expectation that prefix can still close off as a component
    source = inspect.getsource(fock._vev)
    planted = source.replace("head < 0 or (head == 0 and connected)",
                             "head <= 0")
    assert planted != source
    namespace = dict(vars(fock))
    exec(planted, namespace)
    fock._MEMO.clear()
    assert verify.criterion_9().ok
    with monkeypatch.context() as m:
        m.setattr(fock, "_vev", namespace["_vev"])
        fock._MEMO.clear()
        try:
            report = verify.criterion_9()
        finally:
            fock._MEMO.clear()
    assert report.checked == 126 and not report.ok


def test_criterion_3_finds_an_assembly_memo_keyed_on_mu_nu_s(monkeypatch):
    assembly = numbers._assembly

    def clear():
        assembly.cache_clear()
        numbers.connected_cached.cache_clear()

    clear()
    checked, failures = verify.oracle_sweep(3, 2)
    assert checked == 1094 and failures == []
    memo = {}

    def keyed_on_mu_nu_s(mu, nu, k, r, s):
        if (mu, nu, s) not in memo:
            memo[mu, nu, s] = assembly.__wrapped__(mu, nu, k, r, s)
        return memo[mu, nu, s]

    with monkeypatch.context() as m:
        m.setattr(numbers, "_assembly", keyed_on_mu_nu_s)
        clear()
        try:
            checked, failures = verify.oracle_sweep(3, 2)
        finally:
            clear()
    assert checked == 1094 and failures
