"""Each criterion can fail: a fault on record is planted with monkeypatch
and the criterion that should catch it must report failures.

Every case also runs its check on the unplanted library, which must pass
clean, so a case that fails names the fault rather than the library.
Every case starts and ends on empty memos, and empties them again once
the fault is planted, so no value crosses between the two runs.
"""
import inspect
from functools import partial
from operator import attrgetter

import pytest

from leakyhurwitz import chambers, cutjoin, fock, numbers, verify
from leakyhurwitz.fock import connected_hurwitz
from leakyhurwitz.series import Q, TruncSeries
from leakyhurwitz.verify import clear_caches

pytestmark = pytest.mark.usefixtures("clean_caches")


def caught(monkeypatch, check, cases, where, name, fault):
    """The failures of check(), which returns (checked, failures), with
    fault planted as where.name; planted or not, check checks cases, and
    unplanted it must pass."""
    assert check() == (cases, [])
    with monkeypatch.context() as m:
        m.setattr(where, name, fault)
        clear_caches()
        checked, failures = check()
    assert checked == cases
    return failures


def planted(function, old, new):
    """function run from its source with old replaced by new."""
    source = inspect.getsource(function)
    edited = source.replace(old, new)
    assert edited != source
    namespace = dict(vars(inspect.getmodule(function)))
    exec(edited, namespace)
    return namespace[function.__name__]


def criterion(number):
    """Criterion number as a check: its report's (checked, failures)."""
    return lambda: attrgetter("checked", "failures")(
        verify.ALL_CRITERIA[number]())


# criterion 3's two halves on smaller grids
small_sweep = partial(verify.oracle_sweep, 3, 2)
connected_sweep = partial(verify.oracle_sweep, 5, 2, connected_hurwitz,
                          numbers._connected_fock)


def test_criterion_3_finds_empty_side_rests_read_as_zero(monkeypatch):
    rest = numbers._oracle_rest
    assert caught(monkeypatch, connected_sweep, 5878, numbers, "_oracle_rest",
                  lambda mu, nu, k, r, s: (
                      rest(mu, nu, k, r, s) if mu and nu else Q(0)))


def test_criterion_9_finds_the_zero_energy_cut_on_disconnected_sequences(
        monkeypatch):
    # only a connected sequence is dead at a zero-energy prefix: in a
    # full expectation that prefix can still close off as a component
    vev = planted(fock._vev, "head < 0 or (head == 0 and connected)",
                  "head <= 0")
    assert caught(monkeypatch, criterion(9), 126, fock, "_vev", vev)


def test_criterion_3_finds_an_assembly_memo_keyed_on_mu_nu_s(monkeypatch):
    assembly = numbers._assembly
    memo = {}

    def keyed_on_mu_nu_s(mu, nu, k, r, s):
        if (mu, nu, s) not in memo:
            memo[mu, nu, s] = assembly.__wrapped__(mu, nu, k, r, s)
        return memo[mu, nu, s]

    assert caught(monkeypatch, small_sweep, 1094, numbers, "_assembly",
                  keyed_on_mu_nu_s)


def test_criterion_3_finds_sigma_edges_over_2_to_the_n(monkeypatch):
    # sigma's degree-n coefficient is 1/(2^(n-1) n!); 2^n in its place
    # past the linear term halves every edge term of degree 3 and up
    sigma = fock.sigma_series

    def over_2_to_the_n(form, caps):
        return TruncSeries(caps, {e: c / (1 + (sum(e) > 1))
                                  for e, c in sigma(form, caps).terms.items()})

    assert caught(monkeypatch, small_sweep, 1094, fock, "sigma_series",
                  over_2_to_the_n)


def test_criterion_7_finds_brackets_built_on_sigma_2z_over_2(monkeypatch):
    sigma = cutjoin.sigma_series
    assert caught(monkeypatch, criterion(7), 304, cutjoin, "sigma_series",
                  lambda form, caps: sigma(
                      tuple(2 * c for c in form), caps) * Q(1, 2))


def test_criterion_3_finds_the_inversion_missing_its_j_0_blocks(monkeypatch):
    # a proper block without insertions is a term of the inversion too
    block_sum = planted(numbers._block_sum, "for j in range(s + 1):",
                        "for j in range(1 if proper else 0, s + 1):")
    assert caught(monkeypatch, connected_sweep, 5878, numbers, "_block_sum",
                  block_sum)


def test_criterion_3_finds_the_block_sum_keeping_its_numerator_unscaled(
        monkeypatch):
    # when the running denominator grows, the numerator summed so far
    # must grow with it
    block_sum = planted(numbers._block_sum, "num * (d // math.gcd(den, d))",
                        "num")
    assert caught(monkeypatch, small_sweep, 1094, numbers, "_block_sum",
                  block_sum)


def test_criterion_9_finds_the_torus_correction_dropped(monkeypatch):
    # c_k = 0 leaves the k = +-1 and genus-zero checks as they are; only
    # the three genus-one pins, where the correction is nonzero, see it
    cmr = planted(numbers.cmr_leaky_r1, "c_k = Q(k * k - 1, 24)",
                  "c_k = Q(0)")
    assert len(caught(monkeypatch, criterion(9), 126, verify, "cmr_leaky_r1",
                      cmr)) == 3


def test_criterion_6_finds_the_complement_side_sign_dropped(monkeypatch):
    # a point on the delta < 0 side is crossed through the complement
    # wall, whose jump is the negative of the jump across the wall
    split = planted(chambers._oriented_split,
                    "sign, w, delta = -1, complement_wall",
                    "sign, w, delta = 1, complement_wall")
    assert len(caught(monkeypatch, criterion(6), 85, chambers,
                      "_oriented_split", split)) == 9


def test_criterion_6_finds_the_r_1_coefficient_extracted(monkeypatch):
    # (2,)*s is the extracted degree only at r = 1; verify imports the
    # crossing by name, so the fault is planted there
    crossing = planted(chambers.wall_crossing_series,
                       "total.coefficient(caps)",
                       "total.coefficient((2,) * s)")
    assert len(caught(monkeypatch, criterion(6), 85, verify,
                      "wall_crossing_series", crossing)) == 10
