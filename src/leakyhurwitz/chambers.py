"""Chamber geometry of the wall arrangement, exact polynomial fits,
and the wall-crossing formula evaluated two independent ways.

Walls are the hyperplanes sum(mu_I) - sum(nu_J) - k*t = 0 indexed by
subsets I, J of the part positions and an insertion count t; each
records a way an intermediate operator of the commutation algorithm can
reach energy zero, so I or J may be empty or full (only the two pairs
whose hyperplane degenerates to k = 0 are excluded).  On each open
chamber the connected number is a polynomial in the parts (k
eliminated through the energy balance); the fit interpolates engine
values on a lattice simplex deep inside the chamber in Newton form,
every degree up to the bound included, and must reproduce held-out
points exactly.  Wall crossings are computed both from fitted
polynomial differences and from the quadratic formula in smaller
correlators.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache
from typing import NamedTuple

from .series import Q, TruncSeries, sigma_over_sigma
from .fock import (
    alpha_op,
    connected_hurwitz,
    disconnected_vev_series,
    insertion_op,
)
from .numbers import canonical_partition, check_query


class ChamberFitError(RuntimeError):
    """A fitted polynomial failed exact held-out validation."""


class LatticePoint(NamedTuple):
    """A (mu, nu, k) triple with parts stored sorted descending."""
    mu: tuple
    nu: tuple
    k: int


def lattice_point(mu, nu, k):
    return LatticePoint(canonical_partition(mu), canonical_partition(nu),
                        operator.index(k))


class Wall(NamedTuple):
    """Wall sum(mu_I) - sum(nu_J) - k*t = 0.

    I and J hold 0-based positions into the descending-sorted parts;
    t counts insertions, 0 <= t <= s.  One of I, J may be empty (and
    one may be the full index range), but not both at once: those two
    combinations degenerate to the excluded hyperplane k = 0.
    """
    I: frozenset
    J: frozenset
    t: int


def wall(I, J, t):
    return Wall(frozenset(map(operator.index, I)),
                frozenset(map(operator.index, J)), operator.index(t))


def wall_name(w):
    """The wall as every message prints it: 1-based part positions."""
    return (f"I={sorted(i + 1 for i in w.I)} "
            f"J={sorted(j + 1 for j in w.J)} t={w.t}")


def complement_wall(w, m, n, s):
    return Wall(frozenset(range(m)) - w.I, frozenset(range(n)) - w.J,
                s - w.t)


def delta_of(w, point):
    """delta = sum(mu_I) - sum(nu_J) - t*k at the given point."""
    return (sum(point.mu[i] for i in w.I)
            - sum(point.nu[j] for j in w.J)
            - w.t * point.k)


def _subsets(n):
    items = range(n)
    for size in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, size))


@lru_cache(maxsize=64)
def all_walls(m, n, s):
    """Every wall of the arrangement for m mu-parts, n nu-parts, s slots.

    A wall records one way an intermediate operator of the commutation
    algorithm can reach energy zero: sum(mu_I) - sum(nu_J) - t*k = 0.
    Any subset pair occurs, including one-sided empty or full ones;
    only (empty, empty) and (full, full) are excluded, since those
    hyperplanes degenerate to k = 0 (or to the trivial balance), and
    k = 0 is deliberately not a wall.
    """
    out = []
    full_I, full_J = frozenset(range(m)), frozenset(range(n))
    for I in _subsets(m):
        for J in _subsets(n):
            if (not I and not J) or (I == full_I and J == full_J):
                continue
            for t in range(s + 1):
                out.append(Wall(I, J, t))
    out.sort(key=lambda w: (w.t, len(w.I), len(w.J), sorted(w.I),
                            sorted(w.J)))
    return tuple(out)


def _sign(x):
    return (x > 0) - (x < 0)


@lru_cache(maxsize=64)
def _wall_masks(m, n, s):
    """all_walls(m, n, s) as (I bitmask, J bitmask, t), in the same order."""
    return tuple((sum(1 << i for i in w.I), sum(1 << j for j in w.J), w.t)
                 for w in all_walls(m, n, s))


def _subset_sums(parts):
    """sums[mask] = the sum of the parts at the set bits of mask."""
    sums = [0]
    for p in parts:
        sums += [x + p for x in sums]
    return sums


def sign_vector(point, s):
    """Signs of delta over all walls; equal nonzero vectors = same chamber."""
    a, b, k = _subset_sums(point.mu), _subset_sums(point.nu), point.k
    return tuple(_sign(a[I] - b[J] - t * k)
                 for I, J, t in _wall_masks(len(point.mu), len(point.nu), s))


# -- chamber polynomials ----------------------------------------------

class ChamberPoly(NamedTuple):
    """Exact polynomial in the m+n parts, valid on one chamber.

    coeffs maps exponent tuples (mu exponents then nu exponents) to
    nonzero rational coefficients.  degree is the a-priori bound
    (r+1)s + 1 - m - n; the fit allows every degree up to it, and
    criterion 5 checks that only degree, degree-2, ... occur.
    """
    m: int
    n: int
    r: int
    s: int
    degree: int
    coeffs: dict
    base: LatticePoint
    signs: tuple

    def evaluate(self, mu, nu):
        mu, nu = canonical_partition(mu), canonical_partition(nu)
        if len(mu) != self.m or len(nu) != self.n:
            raise ValueError("part counts do not match the fitted chamber")
        coords = mu + nu
        return sum((c * math.prod(map(pow, coords, exps))
                    for exps, c in self.coeffs.items()), Q(0))

    def named_terms(self):
        """(monomial, coefficient) pairs, largest exponents first; a
        monomial reads like m1^2*n1^1, and the constant one as 1."""
        names = [f"m{i + 1}" for i in range(self.m)]
        names += [f"n{j + 1}" for j in range(self.n)]
        for exps, c in sorted(self.coeffs.items(), reverse=True):
            mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
            yield mono or "1", c

    def realized_degree(self):
        deg = -1
        for exps, c in self.coeffs.items():
            if c != 0:
                deg = max(deg, sum(exps))
        return deg


def _shifts(nvars, total):
    """Exponent tuples e >= 0 of nvars entries with |e| = total."""
    for c in itertools.combinations_with_replacement(range(nvars), total):
        yield tuple(c.count(i) for i in range(nvars))


# held-out points checked after the fit
HOLDOUT = 5


def fit_chamber_polynomial(base, r, s, rng=None):
    """Fit the chamber polynomial by Newton interpolation.

    The grid is origin + s*e over every e >= 0 with |e| <= D, the degree
    bound, where origin = (2s(D+2)+1) * base.  A wall delta is a nonzero
    integer at base and a shift s*e moves it by at most 2s|e|, so every
    point with |e| <= D+2 is balanced and strictly inside the chamber.
    Forward differences of the engine values along each variable in turn
    give the Newton coefficients c_e = Delta^e f(origin), and the Newton
    form sum_e c_e prod_i binom((x_i - origin_i)/s, e_i) is expanded into
    monomials of every degree up to D: parity gaps are found, not assumed.
    HOLDOUT points at |e| = D+1 or D+2, drawn from rng, must then match
    exactly, or ChamberFitError is raised.
    """
    mu, nu, k, r, s = check_query(*base, r, s)
    base = LatticePoint(mu, nu, k)
    if s < 1:
        raise ValueError("chamber fits need at least one insertion")
    if sum(base.mu) != sum(base.nu) + s * base.k:
        raise ValueError("base point violates the energy balance")
    m, n = len(base.mu), len(base.nu)
    signs = sign_vector(base, s)
    if 0 in signs:
        raise ValueError("base point lies on a wall")
    degree = (r + 1) * s + 1 - m - n
    # negative or half-integral genus: every value in the chamber is zero
    if degree < 0 or (r * s + m + n) % 2:
        return ChamberPoly(m, n, r, s, degree, {}, base, signs)
    rng = rng if rng is not None else random.Random(20240 + degree)
    nvars = m + n
    origin = [(2 * s * (degree + 2) + 1) * p for p in base.mu + base.nu]

    def point_at(e):
        parts = [o + s * x for o, x in zip(origin, e)]
        return lattice_point(parts[:m], parts[m:],
                             (sum(parts[:m]) - sum(parts[m:])) // s)

    grid = [e for d in range(degree + 1) for e in _shifts(nvars, d)]
    diff = {e: connected_hurwitz(*point_at(e), r, s) for e in grid}
    for i in range(nvars):
        for j in range(1, degree + 1):
            # the j-th differences along i; highest |e| first, so each
            # step reads diff at e - e_i before that value changes
            for e in reversed(grid):
                if e[i] >= j:
                    diff[e] -= diff[e[:i] + (e[i] - 1,) + e[i + 1:]]

    caps = (degree,) * nvars
    # the product of factors[i][:d] is binom((x_i - origin_i)/s, d)
    factors = [[(TruncSeries.from_form([int(v == i) for v in range(nvars)],
                                       caps)
                 + TruncSeries.const(caps, -origin[i] - j * s))
                * Q(1, s * (j + 1)) for j in range(degree)]
               for i in range(nvars)]
    total = TruncSeries.zero(caps)
    for e, c in diff.items():
        term = TruncSeries.const(caps, c)
        for i, d in enumerate(e):
            for factor in factors[i][:d]:
                term = term * factor
        total = total + term
    poly = ChamberPoly(m, n, r, s, degree, dict(total.terms.items()), base,
                       signs)

    pool = [e for d in (degree + 1, degree + 2) for e in _shifts(nvars, d)]
    for e in rng.sample(pool, min(HOLDOUT, len(pool))):
        cand = point_at(e)
        expect = connected_hurwitz(*cand, r, s)
        got = poly.evaluate(cand.mu, cand.nu)
        if got != expect:
            raise ChamberFitError(
                f"held-out point {cand} evaluates to {got}, engine says "
                f"{expect}")
    return poly


# -- wall crossing -----------------------------------------------------

def _check_wall(w, m, n, s):
    """Reject a wall outside the arrangement of m mu-parts, n nu-parts
    and s insertions: an index or a t out of range, or the degenerate
    (empty, empty) or (full, full) pair that all_walls leaves out."""
    full_I, full_J = frozenset(range(m)), frozenset(range(n))
    name = f"wall {wall_name(w)}"
    if not (w.I <= full_I and w.J <= full_J):
        raise ValueError(f"{name} indexes outside {m} mu-parts and "
                         f"{n} nu-parts")
    if not 0 <= w.t <= s:
        raise ValueError(f"{name} has t outside 0..{s}")
    if (not w.I and not w.J) or (w.I == full_I and w.J == full_J):
        raise ValueError(f"{name} is degenerate: it pairs empty with "
                         f"empty or full with full")


def _h_factor(left_alphas, insertion_vars, right_alphas, k, caps):
    """One H factor of the crossing formula: the disconnected series of a
    mixed alpha/insertion shape divided by the product of the boson
    energies' absolute values.

    left_alphas and right_alphas are signed boson energies placed left
    and right of the insertion block; insertion_vars lists the
    z-variable index of each energy -k insertion.
    """
    ops = [alpha_op(e) for e in left_alphas]
    ops += [insertion_op(-k, v) for v in insertion_vars]
    ops += [alpha_op(e) for e in right_alphas]
    denom = Q(1)
    for e in left_alphas + right_alphas:
        denom *= abs(e)
    return disconnected_vev_series(ops, caps) * (Q(1) / denom)


def _oriented_split(w, point, s):
    """Check a balanced point and a wall of the arrangement, then turn
    the wall so that the point lies on its delta >= 0 side.

    Returns (sign, wall, delta, mu_I, nu_J, mu_Ic, nu_Jc): the crossing
    across w is sign times the crossing across the returned wall, whose
    index sets split the parts into the four lists.
    """
    m, n = len(point.mu), len(point.nu)
    if sum(point.mu) != sum(point.nu) + s * point.k:
        raise ValueError("point violates the energy balance")
    _check_wall(w, m, n, s)
    sign, delta = 1, delta_of(w, point)
    if delta < 0:
        sign, w, delta = -1, complement_wall(w, m, n, s), -delta
    return (sign, w, delta,
            [point.mu[i] for i in sorted(w.I)],
            [point.nu[j] for j in sorted(w.J)],
            [point.mu[i] for i in range(m) if i not in w.I],
            [point.nu[j] for j in range(n) if j not in w.J])


def wall_crossing_series(w, point, r, s):
    """Wall-crossing value from the quadratic correlator formula.

    Returns the jump (delta>0 side minus delta<0 side) of the chamber
    polynomials across any wall w of all_walls, evaluated at point.
    The point must be strictly off the wall; delta = 0 is rejected.
    """
    mu, nu, k, r, s = check_query(*point, r, s)
    sign, w, delta, mu_I, nu_J, mu_Ic, nu_Jc = _oriented_split(
        w, LatticePoint(mu, nu, k), s)
    if delta == 0:
        raise ValueError(f"wall {wall_name(w)}: point lies on the wall; "
                         f"move strictly off it")
    caps = (r + 1,) * s
    allvars = tuple(range(s))
    full_ratio = sigma_over_sigma(delta, 1, allvars, caps)
    total = TruncSeries.zero(caps)
    if k != 0:
        # balance of the two factors forces exactly t insertions left
        sizes = (w.t,)
    else:
        # with no leaking every split is balanced and the t-label is
        # degenerate (all t cut out the same hyperplane)
        sizes = tuple(range(s + 1))
    for size in sizes:
        for K in itertools.combinations(range(s), size):
            Kc = tuple(v for v in range(s) if v not in K)
            ratio = (sigma_over_sigma(1, delta, K, caps)
                     * sigma_over_sigma(1, delta, Kc, caps)
                     * full_ratio * (Q(delta) ** 2))
            # H_{mu_I, nu_J + delta} and H_{mu_{I^c} + delta, nu_{J^c}}
            h_left = _h_factor(mu_I, K, [-p for p in nu_J] + [-delta],
                               k, caps)
            h_right = _h_factor([delta] + mu_Ic, Kc, [-p for p in nu_Jc],
                                k, caps)
            total = total + ratio * h_left * h_right
    return sign * total.coefficient(caps)


def wall_crossing_genus0(w, point):
    """Genus-zero wall crossing: binomial times delta times two
    connected one-part-smaller numbers (r=1, s=m+n-2)."""
    point = lattice_point(point.mu, point.nu, point.k)
    s = len(point.mu) + len(point.nu) - 2
    sign, w, delta, mu_I, nu_J, mu_Ic, nu_Jc = _oriented_split(w, point, s)
    s1 = len(w.I) + len(w.J) - 1
    if delta == 0 or (point.k != 0 and w.t != s1):
        # on the wall, or off the only balanced insertion split t = s1
        return Q(0)
    h1 = connected_hurwitz(mu_I, nu_J + [delta], point.k, 1, s1)
    h2 = connected_hurwitz(mu_Ic + [delta], nu_Jc, point.k, 1, s - s1)
    return sign * Q(math.comb(s, s1)) * Q(delta) * h1 * h2


# -- reports -----------------------------------------------------------

def format_chamber_report(poly):
    lines = [
        f"chamber fit: m={poly.m} n={poly.n} r={poly.r} s={poly.s}",
        f"base: mu={list(poly.base.mu)} nu={list(poly.base.nu)} "
        f"k={poly.base.k}",
        f"degree bound: {poly.degree}  realized: {poly.realized_degree()}",
        f"terms: {len(poly.coeffs)}",
    ]
    for mono, c in poly.named_terms():
        lines.append(f"  {c}  {mono}")
    return "\n".join(lines)


def format_wall_report(w, point, value, delta):
    return "\n".join([
        f"wall: {wall_name(w)}",
        f"point: mu={list(point.mu)} nu={list(point.nu)} k={point.k}",
        f"delta: {delta}",
        f"crossing: {value}",
    ])
