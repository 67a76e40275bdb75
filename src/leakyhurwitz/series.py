"""Exact capped multivariate power series over the rationals.

Everything downstream works in the ring Q[z_1..z_s] / (z_i^{caps_i + 1}),
i.e. power series truncated per variable.  Coefficients are exact
rationals; zero coefficients are never stored.  The only series that are
ever inverted are units (nonzero constant term), so no Laurent
representation is needed: quotients by the odd series sigma(z) are always
folded into unit-series ratios first.

sigma denotes the function sigma(x) = exp(x/2) - exp(-x/2), whose Taylor
expansion sum_{m>=0} x^(2m+1) / (4^m (2m+1)!) has exact rational
coefficients.  S(x) = sigma(x)/x is the associated unit series.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction as Q
from functools import lru_cache

QZERO = Q(0)
QONE = Q(1)


@lru_cache(maxsize=256)
def _layout(caps):
    """Bit fields packing one exponent tuple under caps into an int.

    Returns (fields, bias, guard).  Variable i owns fields[i] = (shift,
    mask) with mask = 2^w - 1, w the bit length of caps[i], and one guard
    bit just above the field.  Adding two packed monomials adds every
    field without carries (each sum is at most 2 * cap < 2^(w+1)); adding
    bias then sets a guard bit exactly where a field went past its cap.
    """
    fields = []
    bias = guard = shift = 0
    for cap in caps:
        w = cap.bit_length()
        fields.append((shift, (1 << w) - 1))
        bias |= ((1 << w) - 1 - cap) << shift
        guard |= 1 << (shift + w)
        shift += w + 1
    return tuple(fields), bias, guard


def _pack(lay, exps):
    e = 0
    for x, (shift, _) in zip(exps, lay[0]):
        e |= x << shift
    return e


def _unpack(lay, e):
    return tuple((e >> shift) & mask for shift, mask in lay[0])


class _Terms(Mapping):
    """Read-only view of a series: exponent tuple -> nonzero Fraction."""

    __slots__ = ("_s",)

    def __init__(self, s):
        self._s = s

    def __len__(self):
        return len(self._s._num)

    def __iter__(self):
        lay = self._s._lay
        return (_unpack(lay, e) for e in self._s._num)

    def __getitem__(self, exps):
        try:
            c = self._s.coefficient(exps)
        except ValueError:
            c = QZERO
        if not c:
            raise KeyError(exps)
        return c

    def __repr__(self):
        return repr(dict(self.items()))


class TruncSeries:
    """Sparse exact series with an independent degree cap per variable.

    Monomials are stored packed into ints (see _layout) and coefficients
    as nonzero int numerators over one positive denominator.  Every
    result is reduced so that no prime divides the denominator and all
    numerators at once; equal series are then equal field by field, and
    multiplication never touches a Fraction.  The terms property shows
    the same data as a Mapping from exponent tuples to Fractions.
    Instances are treated as immutable: no method mutates an existing
    instance, which keeps concurrent readers safe and lets a sum or
    product with a zero operand return an operand itself.
    """

    __slots__ = ("caps", "_lay", "_num", "_den")

    def __init__(self, caps, terms=None):
        """A series from a dict of exponent tuples to rationals."""
        self.caps = tuple(caps)
        self._lay = _layout(self.caps)
        self._num = {}
        self._den = 1
        if terms:
            coeffs = {}
            for exps, c in terms.items():
                c = Q(c)
                if c:
                    self._check_exps(tuple(exps))
                    coeffs[_pack(self._lay, exps)] = c
            self._den = math.lcm(*(c.denominator for c in coeffs.values()))
            self._num = {e: c.numerator * (self._den // c.denominator)
                         for e, c in coeffs.items()}

    @classmethod
    def _make(cls, caps, lay, num, den):
        """Wrap int numerators over den, reduced to lowest terms."""
        g = math.gcd(den, *num.values()) if num else den
        if g != 1:
            den //= g
            num = {e: n // g for e, n in num.items()}
        out = object.__new__(cls)
        out.caps = caps
        out._lay = lay
        out._num = num
        out._den = den
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, caps):
        return cls(caps)

    @classmethod
    def const(cls, caps, c):
        caps = tuple(caps)
        return cls(caps, {(0,) * len(caps): c})

    @classmethod
    def from_form(cls, form, caps):
        """The degree-one series for a linear form (tuple of int coeffs)."""
        n = len(caps)
        if len(form) != n:
            raise ValueError("form length does not match caps")
        terms = {}
        for i, c in enumerate(form):
            if c and caps[i] >= 1:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(caps, terms)

    # -- queries ------------------------------------------------------

    @property
    def terms(self):
        return _Terms(self)

    def is_zero(self):
        return not self._num

    def _check_exps(self, exps):
        if len(exps) != len(self.caps):
            raise ValueError("exponent tuple has wrong length")
        for e, cap in zip(exps, self.caps):
            if e > cap:
                raise ValueError(f"exponent {exps} beyond caps {self.caps}")
            if e < 0:
                raise ValueError("negative exponent")

    def coefficient(self, exps):
        exps = tuple(exps)
        self._check_exps(exps)
        n = self._num.get(_pack(self._lay, exps))
        return QZERO if n is None else Q(n, self._den)

    def __eq__(self, other):
        return (isinstance(other, TruncSeries) and self.caps == other.caps
                and self._den == other._den and self._num == other._num)

    def __repr__(self):
        if not self._num:
            return f"TruncSeries(caps={self.caps}, 0)"
        terms = self.terms
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            bits.append(f"{terms[e]}*z^{e}")
        return f"TruncSeries(caps={self.caps}, " + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------

    def relabel(self, order):
        """Variable i renamed order[i]; each cap moves with its variable."""
        back = sorted(range(len(order)), key=order.__getitem__)
        caps = tuple(self.caps[i] for i in back)
        lay = _layout(caps)
        terms = ((_unpack(self._lay, e), n) for e, n in self._num.items())
        num = {_pack(lay, [x[i] for i in back]): n for x, n in terms}
        return TruncSeries._make(caps, lay, num, self._den)

    def __add__(self, other):
        self._check(other)
        if not (self._num and other._num):
            return self if other.is_zero() else other
        da, db = self._den, other._den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, den // db
        out = ({e: n * fa for e, n in self._num.items()} if fa != 1
               else dict(self._num))
        for e, n in other._num.items():
            v = out.get(e, 0) + n * fb
            if v:
                out[e] = v
            else:
                del out[e]
        return TruncSeries._make(self.caps, self._lay, out, den)

    def __neg__(self):
        return TruncSeries._make(self.caps, self._lay,
                                 {e: -n for e, n in self._num.items()},
                                 self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            c = Q(other)
            if c == 0:
                return TruncSeries(self.caps)
            p = c.numerator
            return TruncSeries._make(
                self.caps, self._lay,
                {e: n * p for e, n in self._num.items()},
                self._den * c.denominator)
        self._check(other)
        if not (self._num and other._num):
            return other if other.is_zero() else self
        lay = self._lay
        _, bias, guard = lay
        a, b = self._num, other._num
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
        # keys carry the bias until the end, so one add per pair both
        # forms the product monomial and exposes a field past its cap
        out = {}
        get = out.get
        for e1, c1 in a.items():
            e1 += bias
            for e2, c2 in bitems:
                e = e1 + e2
                if e & guard:
                    continue
                out[e] = get(e, 0) + c1 * c2
        return TruncSeries._make(
            self.caps, lay, {e - bias: v for e, v in out.items() if v},
            self._den * other._den)

    __rmul__ = __mul__

    def _check(self, other):
        if self.caps != other.caps:
            raise ValueError(f"cap mismatch: {self.caps} vs {other.caps}")


# -- linear forms -----------------------------------------------------

def zvars_form(coeff, vars_, nvars):
    """Linear form coeff * sum(z_i for i in vars_), as a coefficient tuple."""
    form = [0] * nvars
    for i in vars_:
        form[i] += coeff
    return tuple(form)


# -- sigma and friends ------------------------------------------------

def sigma_series(form, caps):
    """sigma(L) for a linear form L, truncated to caps.

    sigma(L) = sum_{m>=0} L^(2m+1) / (4^m (2m+1)!).  The zero form gives
    the zero series.  Results are memoized on (form, caps): the engine
    asks for the same few hundred edge weights over and over, and the
    shared instance is safe because no TruncSeries is ever mutated.
    """
    return _sigma_series(tuple(form), tuple(caps))


@lru_cache(maxsize=4096)
def _sigma_series(form, caps):
    L = TruncSeries.from_form(form, caps)
    return _sigma_taylor(TruncSeries.zero(caps), L, L * L, 0)


def unit_s_series(form, caps, scale=1):
    """S(scale * L) = sigma(scale*L)/(scale*L), a unit series.

    S(x) = sum_{m>=0} x^(2m) / (4^m (2m+1)!), so the constant term is 1.
    """
    L = TruncSeries.from_form(form, caps) * Q(scale)
    L2 = L * L
    return _sigma_taylor(TruncSeries.const(caps, 1), L2, L2, 1)


def _sigma_taylor(out, power, L2, m):
    """out + sum_{j>=m} power * L2^(j-m) / (4^j (2j+1)!), up to the caps.

    The shared coefficients of sigma(L) (out = 0, power = L, m = 0) and
    of S(L) (out = 1, power = L^2, m = 1).  A zero L (the zero form, or
    every variable it touches capped at degree 0) adds nothing.
    """
    den = 4 ** m * math.factorial(2 * m + 1)
    while not power.is_zero():
        out = out + power * Q(1, den)
        m += 1
        power = power * L2
        den *= 4 * (2 * m) * (2 * m + 1)
    return out


def invert_unit_series(s):
    """Multiplicative inverse of a unit series (nonzero constant term).

    Raises ValueError on a non-unit.
    """
    c0 = s.coefficient((0,) * len(s.caps))
    if c0 == 0:
        raise ValueError("cannot invert a series with zero constant term")
    # s = c0 (1 - w) with w of positive minimal degree; 1/s = (1/c0) sum w^j.
    w = TruncSeries.const(s.caps, 1) - s * (QONE / c0)
    out = TruncSeries.const(s.caps, 1)
    power = w
    while not power.is_zero():
        out = out + power
        power = power * w
    return out * (QONE / c0)


def sigma_over_sigma(a, b, vars_, caps):
    """sigma(a * z_V) / sigma(b * z_V) for nonzero b.

    Computed as (a/b) * S(a z_V) / S(b z_V).  For a = 0 returns the zero
    series; b = 0 is rejected (the quotient would be Laurent).
    """
    if b == 0:
        raise ValueError("denominator form sigma(0) is identically zero")
    if a == 0:
        return TruncSeries.zero(caps)
    form = zvars_form(1, vars_, len(caps))
    num = unit_s_series(form, caps, scale=a)
    den = unit_s_series(form, caps, scale=b)
    return (num * invert_unit_series(den)) * Q(a, b)
