"""Each criterion can fail: a fault on record is planted with monkeypatch
and the criterion that should catch it must report failures.

Every case also runs its check on the unplanted library, which must pass
clean, so a case that fails names the fault rather than the library.
"""
import inspect

from leakyhurwitz import cutjoin, fock, numbers, series, verify
from leakyhurwitz.fock import connected_hurwitz
from leakyhurwitz.numbers import partitions_of
from leakyhurwitz.series import Q, TruncSeries


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


def test_criterion_3_finds_sigma_edges_over_2_to_the_n(monkeypatch):
    # sigma's degree-n coefficient is 1/(2^(n-1) n!); 2^n in its place
    # past the linear term halves every edge term of degree 3 and up
    sigma = fock.sigma_series

    def over_2_to_the_n(form, caps):
        return TruncSeries(caps, {e: c / (1 + (sum(e) > 1))
                                  for e, c in sigma(form, caps).terms.items()})

    def clear():
        fock._MEMO.clear()
        fock._central.cache_clear()
        series._sigma_series.cache_clear()
        numbers.connected_cached.cache_clear()
        numbers._assembly.cache_clear()

    clear()
    checked, failures = verify.oracle_sweep(3, 2)
    assert checked == 1094 and failures == []
    with monkeypatch.context() as m:
        m.setattr(fock, "sigma_series", over_2_to_the_n)
        clear()
        try:
            checked, failures = verify.oracle_sweep(3, 2)
        finally:
            clear()
    assert checked == 1094 and failures


def test_criterion_7_finds_brackets_built_on_sigma_2z_over_2(monkeypatch):
    # criterion 7's steps with |nu| <= 3
    steps = [(nu, k, r, s) for total in range(4) for nu in partitions_of(total)
             for k in (-1, 0, 1, 2) for r in (1, 2) for s in (1, 2)]

    def failed():
        cutjoin._bracket.cache_clear()
        try:
            return sum(not cutjoin.verify_cut_and_join(*step)["ok"]
                       for step in steps)
        finally:
            cutjoin._bracket.cache_clear()

    assert len(steps) == 112 and failed() == 0
    sigma = cutjoin.sigma_series
    with monkeypatch.context() as m:
        m.setattr(cutjoin, "sigma_series", lambda form, caps: sigma(
            tuple(2 * c for c in form), caps) * Q(1, 2))
        assert failed()


def planted_block_sum(old, new):
    """numbers._block_sum run from its source with old replaced by new."""
    source = inspect.getsource(numbers._block_sum)
    planted = source.replace(old, new)
    assert planted != source
    namespace = dict(vars(numbers))
    exec(planted, namespace)
    return namespace["_block_sum"]


def test_criterion_3_finds_the_inversion_missing_its_j_0_blocks(monkeypatch):
    # a proper block without insertions is a term of the inversion too
    planted = planted_block_sum("for j in range(s + 1):",
                                "for j in range(1 if proper else 0, s + 1):")

    def clear():
        numbers._connected_fock.cache_clear()
        numbers._oracle_rest.cache_clear()

    clear()
    checked, failures = connected_sweep()
    assert checked == 5878 and failures == []
    with monkeypatch.context() as m:
        m.setattr(numbers, "_block_sum", planted)
        clear()
        try:
            checked, failures = connected_sweep()
        finally:
            clear()
    assert checked == 5878 and failures


def test_criterion_3_finds_the_block_sum_keeping_its_numerator_unscaled(
        monkeypatch):
    # when the running denominator grows, the numerator summed so far
    # must grow with it
    planted = planted_block_sum("num * (d // math.gcd(den, d))", "num")

    def clear():
        numbers._assembly.cache_clear()
        numbers.connected_cached.cache_clear()

    clear()
    checked, failures = verify.oracle_sweep(3, 2)
    assert checked == 1094 and failures == []
    with monkeypatch.context() as m:
        m.setattr(numbers, "_block_sum", planted)
        clear()
        try:
            checked, failures = verify.oracle_sweep(3, 2)
        finally:
            clear()
    assert checked == 1094 and failures
