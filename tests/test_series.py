"""Exact series arithmetic: frozen expansions and ring properties."""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from leakyhurwitz.series import (
    Q,
    TruncSeries,
    invert_unit_series,
    sigma_over_sigma,
    sigma_series,
    unit_s_series,
    zvars_form,
)


def as_data(a):
    """A series as (caps, terms dict): series define no ==, so tests
    compare these."""
    return a.caps, dict(a.terms)


def test_sigma_single_variable_cap5():
    # sigma(z) = 2 sinh(z/2) = z + z^3/24 + z^5/1920 + ...
    s = sigma_series((1,), (5,))
    assert s.terms == {(1,): Q(1), (3,): Q(1, 24), (5,): Q(1, 1920)}


def test_sigma_scaled_argument_cap3():
    # sigma(2 z) = 2z + (2z)^3/24 = 2z + z^3/3 up to degree 3.
    s = sigma_series((2,), (3,))
    assert s.terms == {(1,): Q(2), (3,): Q(1, 3)}


def test_sigma_two_variables_truncates_mixed_terms():
    # caps (1,1) kill every cubic monomial of (z1+z2)^3.
    s = sigma_series((1, 1), (1, 1))
    assert s.terms == {(1, 0): Q(1), (0, 1): Q(1)}


def test_sigma_zero_form_is_zero():
    assert sigma_series((0, 0), (2, 2)).is_zero()


def test_sigma_odd_total_degree_only():
    s = sigma_series((3, -2), (4, 3))
    assert s.terms
    assert all(sum(e) % 2 == 1 for e in s.terms)


def test_sigma_is_odd_under_negation():
    a = sigma_series((2, 5), (3, 3))
    b = sigma_series((-2, -5), (3, 3))
    assert as_data(b) == as_data(-a)


def test_sigma_ratio_frozen_example():
    # sigma(2z)/sigma(z) = 2 cosh(z/2) = 2 + z^2/4 + ...
    r = sigma_over_sigma(2, 1, (0,), (2,))
    assert r.terms == {(0,): Q(2), (2,): Q(1, 4)}


def test_sigma_ratio_zero_multiplier():
    assert sigma_over_sigma(0, 1, (0,), (3,)).is_zero()


def test_sigma_ratio_minus_one_is_constant():
    r = sigma_over_sigma(-1, 1, (0, 1), (2, 2))
    assert as_data(r) == as_data(TruncSeries.const((2, 2), -1))


@pytest.mark.parametrize("e", [-5, -3, -1, 1, 2, 3, 4, 5])
def test_sigma_ratio_times_denominator(e):
    caps = (4, 3)
    vars_ = (0, 1)
    lhs = sigma_over_sigma(e, 1, vars_, caps) * sigma_series(
        zvars_form(1, vars_, 2), caps)
    rhs = sigma_series(zvars_form(e, vars_, 2), caps)
    assert as_data(lhs) == as_data(rhs)


@pytest.mark.parametrize("a,b", [(1, 2), (3, 2), (-2, 5), (4, -3), (0, 7)])
def test_sigma_over_sigma_identity(a, b):
    caps = (4,)
    lhs = sigma_over_sigma(a, b, (0,), caps) * sigma_series((b,), caps)
    assert as_data(lhs) == as_data(sigma_series((a,), caps))


def test_sigma_over_sigma_rejects_zero_denominator():
    with pytest.raises(ValueError):
        sigma_over_sigma(1, 0, (0,), (2,))


def test_invert_unit_frozen_example():
    s = TruncSeries((4,), {(0,): Q(1), (2,): Q(1, 24)})
    inv = invert_unit_series(s)
    assert inv.terms == {(0,): Q(1), (2,): Q(-1, 24), (4,): Q(1, 576)}


def test_invert_unit_roundtrip():
    s = unit_s_series((1, 2), (3, 3), scale=3)
    prod = s * invert_unit_series(s)
    assert as_data(prod) == as_data(TruncSeries.const((3, 3), 1))


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        invert_unit_series(sigma_series((1,), (3,)))


def test_coefficient_beyond_cap_raises():
    s = sigma_series((1,), (3,))
    with pytest.raises(ValueError):
        s.coefficient((4,))


def test_coefficient_reads():
    s = sigma_series((1,), (5,))
    assert s.coefficient((3,)) == Q(1, 24)
    assert s.coefficient((2,)) == 0


def test_ring_properties_randomized():
    rng = random.Random(7)
    caps = (3, 2)

    def rand_series():
        t = {}
        for _ in range(rng.randrange(1, 6)):
            e = (rng.randrange(caps[0] + 1), rng.randrange(caps[1] + 1))
            c = Q(rng.randrange(-9, 10), rng.randrange(1, 7))
            if c != 0:
                t[e] = t.get(e, Q(0)) + c
        return TruncSeries(caps, {e: c for e, c in t.items() if c != 0})

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert as_data(a * b) == as_data(b * a)
        assert as_data((a * b) * c) == as_data(a * (b * c))
        assert as_data(a * (b + c)) == as_data(a * b + a * c)


def test_cap_mismatch_rejected():
    a = TruncSeries.const((2,), 1)
    b = TruncSeries.const((3,), 1)
    with pytest.raises(ValueError):
        _ = a * b


def test_zero_variable_ring():
    # the empty-caps ring is just Q; used by insertion-free correlators.
    one = TruncSeries.const((), 1)
    assert (one * one).coefficient(()) == 1
    assert sigma_series((), ()).is_zero()


# -- the packed integer kernel against plain dicts of Fractions ---------

# (7,) and (8,) sit either side of a field-width boundary (3 and 4 bits)
KERNEL_CAPS = [(), (0,), (1, 1), (3, 2), (7,), (8,), (2,) * 6]


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(caps, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if all(x <= cap for x, cap in zip(e, caps)):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_matches(s, ref):
    ref = {e: Fraction(c) for e, c in ref.items() if c}
    assert dict(s.terms) == ref
    assert s.terms == ref
    assert len(s.terms) == len(ref)
    assert s.is_zero() == (not ref)
    assert as_data(s) == as_data(TruncSeries(s.caps, ref))
    # results are kept in lowest terms
    assert s._den > 0 and math.gcd(s._den, *s._num.values()) == 1
    for e in itertools.product(*(range(cap + 1) for cap in s.caps)):
        got = s.coefficient(e)
        assert type(got) is Fraction
        assert got == ref.get(e, 0)
        assert s.terms.get(e) == ref.get(e)


@pytest.mark.parametrize("caps", KERNEL_CAPS)
def test_kernel_matches_fraction_dict_reference(caps):
    rng = random.Random(repr(caps))

    def rand_terms():
        # negative and unreduced inputs (n*g / d*g), ints, explicit zeros
        t = {}
        for _ in range(rng.randrange(0, 9)):
            e = tuple(rng.randrange(cap + 1) for cap in caps)
            g = rng.randrange(1, 4)
            n, d = rng.randrange(-12, 13), rng.randrange(1, 9)
            t[e] = rng.choice([Fraction(n * g, d * g), n, 0])
        return t

    for _ in range(30):
        ta, tb = rand_terms(), rand_terms()
        ra, rb = _ref_add(ta, {}), _ref_add(tb, {})
        a, b = TruncSeries(caps, ta), TruncSeries(caps, tb)
        _assert_matches(a, ra)
        _assert_matches(a + b, _ref_add(ra, rb))
        _assert_matches(-a, {e: -c for e, c in ra.items()})
        _assert_matches(a - b, _ref_add(ra, {e: -c for e, c in rb.items()}))
        _assert_matches(a - a, {})
        _assert_matches(a * b, _ref_mul(caps, ra, rb))
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        _assert_matches(a * c, {e: v * c for e, v in ra.items()})
        _assert_matches(c * a, {e: v * c for e, v in ra.items()})
        _assert_matches(a * 3, {e: v * 3 for e, v in ra.items()})
        assert (as_data(a) == as_data(b)) == (ra == rb)
        assert as_data((a + b) - b) == as_data(a)


@pytest.mark.parametrize("caps", [c for c in KERNEL_CAPS if c])
def test_kernel_coefficient_errors(caps):
    s = TruncSeries.const(caps, Fraction(2, 3))
    with pytest.raises(ValueError, match="wrong length"):
        s.coefficient(caps + (0,))
    with pytest.raises(ValueError, match="beyond caps"):
        s.coefficient((caps[0] + 1,) + caps[1:])
    with pytest.raises(ValueError, match="negative"):
        s.coefficient((-1,) + caps[1:])
    assert s.terms.get((caps[0] + 1,) + caps[1:]) is None


# -- the closed-form sigma family against its defining Taylor sums ------

def _taylor_sum(L, odd):
    """sum_{m>=0} L^(2m+odd) / (4^m (2m+1)!) by series products: sigma(L)
    for odd = 1, S(L) for odd = 0."""
    out = TruncSeries.zero(L.caps)
    power = L if odd else TruncSeries.const(L.caps, 1)
    m = 0
    while not power.is_zero():
        out = out + power * Q(1, 4 ** m * math.factorial(2 * m + 1))
        power = power * L * L
        m += 1
    return out


def _sigma_family_cases():
    """Forms, caps, scales and (a, b) pairs: the fixed edge cases, then
    seeded random ones with parts up to 300 (chamber fits reach ~100)."""
    yield (0, 0), (2, 3), 1, (0, 1), 0, 1
    yield (5, -7, 0), (0, 0, 0), -1, (0, 1, 2), 3, -2
    yield (300, -300), (4, 4), Q(-7, 3), (0, 1), -300, 299
    yield (1, 2, 3, 4), (3, 0, 2, 1), Q(1, 2), (), 5, -5
    rng = random.Random(29)
    for _ in range(120):
        nvars = rng.randint(1, 4)
        caps = tuple(rng.randint(0, 4 if nvars < 4 else 3)
                     for _ in range(nvars))
        form = tuple(rng.choice([0, rng.randint(-300, 300)])
                     for _ in range(nvars))
        scale = rng.choice([1, -1, rng.randint(-9, 9),
                            Q(rng.randint(-9, 9), rng.randint(1, 9))])
        vars_ = tuple(i for i in range(nvars) if rng.random() < 0.6)
        a = rng.choice([0, rng.randint(-300, 300)])
        b = rng.choice([rng.randint(-300, -1), rng.randint(1, 300)])
        yield form, caps, scale, vars_, a, b


def test_sigma_family_matches_the_defining_taylor_sums():
    for form, caps, scale, vars_, a, b in _sigma_family_cases():
        L = TruncSeries.from_form(form, caps)
        _assert_matches(sigma_series(form, caps),
                        dict(_taylor_sum(L, 1).terms))
        _assert_matches(unit_s_series(form, caps, scale),
                        dict(_taylor_sum(L * scale, 0).terms))
        x = TruncSeries.from_form(zvars_form(1, vars_, len(caps)), caps)
        ref = (_taylor_sum(x * a, 0)
               * invert_unit_series(_taylor_sum(x * b, 0)) * Q(a, b))
        _assert_matches(sigma_over_sigma(a, b, vars_, caps),
                        dict(ref.terms))


def test_sigma_over_sigma_times_denominator_on_several_variables():
    rng = random.Random(2901)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        caps = tuple(rng.randint(1, 3) for _ in range(nvars))
        vars_ = tuple(sorted(rng.sample(range(nvars), rng.randint(2, nvars))))
        a = rng.randint(-300, 300)
        b = rng.choice([x for x in range(-300, 301) if x not in (0, 1)])
        lhs = sigma_over_sigma(a, b, vars_, caps) * sigma_series(
            zvars_form(b, vars_, nvars), caps)
        rhs = sigma_series(zvars_form(a, vars_, nvars), caps)
        assert as_data(lhs) == as_data(rhs)


@pytest.mark.parametrize("build", [sigma_series, unit_s_series])
@pytest.mark.parametrize("form,caps", [((1, 2), (3,)), ((1,), (2, 2)),
                                       ((), (1,))])
def test_sigma_family_rejects_a_form_of_the_wrong_length(build, form, caps):
    with pytest.raises(ValueError, match="form length"):
        build(form, caps)
