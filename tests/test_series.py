"""Exact series arithmetic: frozen expansions and ring properties."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from leakyhurwitz.series import (
    Q,
    TruncSeries,
    coefficient_at,
    invert_unit_series,
    sigma_over_sigma,
    sigma_ratio_series,
    sigma_series,
    unit_s_series,
    zvars_form,
)


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
    assert b == -a


def test_sigma_ratio_frozen_example():
    # sigma(2z)/sigma(z) = 2 cosh(z/2) = 2 + z^2/4 + ...
    r = sigma_ratio_series(2, (0,), (2,))
    assert r.terms == {(0,): Q(2), (2,): Q(1, 4)}


def test_sigma_ratio_zero_multiplier():
    assert sigma_ratio_series(0, (0,), (3,)).is_zero()


def test_sigma_ratio_minus_one_is_constant():
    r = sigma_ratio_series(-1, (0, 1), (2, 2))
    assert r == TruncSeries.const((2, 2), -1)


@pytest.mark.parametrize("e", [-5, -3, -1, 1, 2, 3, 4, 5])
def test_sigma_ratio_times_denominator(e):
    caps = (4, 3)
    vars_ = (0, 1)
    lhs = sigma_ratio_series(e, vars_, caps) * sigma_series(
        zvars_form(1, vars_, 2), caps)
    rhs = sigma_series(zvars_form(e, vars_, 2), caps)
    assert lhs == rhs


@pytest.mark.parametrize("a,b", [(1, 2), (3, 2), (-2, 5), (4, -3), (0, 7)])
def test_sigma_over_sigma_identity(a, b):
    caps = (4,)
    lhs = sigma_over_sigma(a, b, (0,), caps) * sigma_series((b,), caps)
    assert lhs == sigma_series((a,), caps)


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
    assert prod == TruncSeries.const((3, 3), 1)


def test_invert_non_unit_raises():
    with pytest.raises(ValueError):
        invert_unit_series(sigma_series((1,), (3,)))


def test_coefficient_beyond_cap_raises():
    s = sigma_series((1,), (3,))
    with pytest.raises(ValueError):
        coefficient_at(s, (4,))


def test_coefficient_reads():
    s = sigma_series((1,), (5,))
    assert coefficient_at(s, (3,)) == Q(1, 24)
    assert coefficient_at(s, (2,)) == 0


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
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


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
    assert s == TruncSeries(s.caps, ref)
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
        assert (a == b) == (ra == rb)
        assert (a + b) - b == a


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
