"""Chamber geometry of the wall arrangement, exact polynomial fits,
and the wall-crossing formula evaluated two independent ways.

Walls are the hyperplanes sum(mu_I) - sum(nu_J) - k*t = 0 indexed by
subsets I, J of the part positions and an insertion count t; each
records a way an intermediate operator of the commutation algorithm can
reach energy zero, so I or J may be empty or full (only the two pairs
whose hyperplane degenerates to k = 0 are excluded).  On each open
chamber the connected number is a polynomial in
the parts (k eliminated through the energy balance); the fit solves an
exact rational linear system on in-chamber lattice samples and must
reproduce held-out samples exactly.  Wall crossings are computed both
from fitted polynomial differences and from the quadratic formula in
smaller correlators.
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
    canonical_partition,
    check_query,
    connected_hurwitz,
    disconnected_vev_series,
    insertion_op,
)


class ChamberSampleError(RuntimeError):
    """Could not collect enough independent in-chamber sample points."""


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


def sign_vector(point, s):
    """Signs of delta over all walls; equal nonzero vectors = same chamber."""
    walls = all_walls(len(point.mu), len(point.nu), s)
    return tuple(_sign(delta_of(w, point)) for w in walls)


# -- chamber polynomials ----------------------------------------------

class ChamberPoly(NamedTuple):
    """Exact polynomial in the m+n parts, valid on one chamber.

    coeffs maps exponent tuples (mu exponents then nu exponents) to
    rational coefficients.  degree is the a-priori bound
    (r+1)s + 1 - m - n; only total degrees degree, degree-2, ... occur.
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
        mu = tuple(sorted(mu, reverse=True))
        nu = tuple(sorted(nu, reverse=True))
        if len(mu) != self.m or len(nu) != self.n:
            raise ValueError("part counts do not match the fitted chamber")
        coords = mu + nu
        total = Q(0)
        for exps, c in self.coeffs.items():
            total += c * _eval_monomial(exps, coords)
        return total

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


def _parity_monomials(nvars, degree):
    """Exponent tuples of total degree degree, degree-2, ..., >= 0."""
    out = []
    d = degree
    while d >= 0:
        for c in itertools.combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in c:
                exps[i] += 1
            out.append(tuple(exps))
        d -= 2
    return out


def _eval_monomial(exps, coords):
    v = Q(1)
    for x, e in zip(coords, exps):
        if e:
            v *= Q(x) ** e
    return v


# fresh draws in a row after which the sampler gives up
GIVE_UP = 4000
# held-out points checked after the fit
HOLDOUT = 5


def _in_chamber_samples(base, s, signs, rng):
    """Yield distinct in-chamber lattice points near base, without end.

    Samples perturb integer scalings of the base.  Scaling multiplies
    every wall delta by the scale while a radius-rho perturbation of
    the parts moves any delta by at most 2*rho*(m+n) (the slope bound
    of sum(mu_I) - sum(nu_J) - t*k with k recomputed from the balance),
    so choosing scale > 2*radius*(m+n) keeps the whole perturbation box
    strictly inside the chamber.  GIVE_UP draws in a row that yield no
    new point raise ChamberSampleError.
    """
    m, n = len(base.mu), len(base.nu)
    seen = set()
    attempts = misses = 0
    margin = 2 * (m + n)
    while True:
        if misses >= GIVE_UP:
            raise ChamberSampleError(
                f"gave up after {misses} draws in a row without a new "
                f"point ({len(seen)} found)")
        attempts += 1
        misses += 1
        step = 1 + attempts // 400
        radius = 1 + step
        scale = margin * (2 + step)
        mu = tuple(p * scale + rng.randint(-radius, radius) for p in base.mu)
        nu = tuple(p * scale + rng.randint(-radius, radius) for p in base.nu)
        if any(p <= 0 for p in mu + nu):
            continue
        if (sum(mu) - sum(nu)) % s != 0:
            continue
        k = (sum(mu) - sum(nu)) // s
        cand = LatticePoint(tuple(sorted(mu, reverse=True)),
                            tuple(sorted(nu, reverse=True)), k)
        if cand in seen:
            continue
        if sign_vector(cand, s) != signs:
            continue
        seen.add(cand)
        misses = 0
        yield cand


def fit_chamber_polynomial(base, r, s, rng=None):
    """Fit the chamber polynomial through exact interpolation.

    Draws in-chamber lattice points with the same sign vector as base
    from one stream, reducing each monomial row (degrees D, D-2, ...
    only) against the rows kept so far; a row that stays nonzero is
    kept, with its engine value reduced alongside.  At full rank
    back-substitution gives the unique interpolant, and the next
    HOLDOUT points of the stream must match it exactly.  A held-out
    mismatch raises ChamberFitError.
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
    monomials = _parity_monomials(m + n, degree)
    nmono = len(monomials)

    # (pivot, row, value): each row is zero on the pivots of earlier ones
    reduced = []
    samples = _in_chamber_samples(base, s, signs, rng)
    for cand in samples:
        row = [_eval_monomial(e, cand.mu + cand.nu) for e in monomials]
        shift = Q(0)
        for piv, red, val in reduced:
            if row[piv] != 0:
                f = row[piv] / red[piv]
                row = [x - f * y for x, y in zip(row, red)]
                shift += f * val
        piv = next((i for i, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        value = connected_hurwitz(cand.mu, cand.nu, cand.k, r, s)
        reduced.append((piv, row, value - shift))
        if len(reduced) == nmono:
            break

    sol = [Q(0)] * nmono
    for piv, red, val in reversed(reduced):
        sol[piv] = (val - sum(map(operator.mul, red, sol))) / red[piv]
    coeffs = {e: c for e, c in zip(monomials, sol) if c != 0}
    poly = ChamberPoly(m, n, r, s, degree, coeffs, base, signs)

    for cand in itertools.islice(samples, HOLDOUT):
        expect = connected_hurwitz(cand.mu, cand.nu, cand.k, r, s)
        got = poly.evaluate(cand.mu, cand.nu)
        if got != expect:
            raise ChamberFitError(
                f"held-out point {cand} evaluates to {got}, engine says "
                f"{expect}")
    return poly


# -- wall crossing -----------------------------------------------------

def _check_wall(w, m, n):
    """Reject a wall outside the arrangement of m mu-parts and n nu-parts:
    an index out of range, or the degenerate (empty, empty) or (full,
    full) pair that all_walls leaves out."""
    full_I, full_J = frozenset(range(m)), frozenset(range(n))
    name = f"wall I={sorted(w.I)} J={sorted(w.J)} t={w.t}"
    if not (w.I <= full_I and w.J <= full_J):
        raise ValueError(f"{name} indexes outside {m} mu-parts and "
                         f"{n} nu-parts")
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


def wall_crossing_series(w, point, r, s):
    """Wall-crossing value from the quadratic correlator formula.

    Returns the jump (delta>0 side minus delta<0 side) of the chamber
    polynomials across wall w, evaluated at point.  The point must be
    strictly off the wall; delta = 0 is rejected.
    """
    mu, nu, k, r, s = check_query(*point, r, s)
    point = LatticePoint(mu, nu, k)
    m, n = len(point.mu), len(point.nu)
    if sum(point.mu) != sum(point.nu) + s * point.k:
        raise ValueError("point violates the energy balance")
    _check_wall(w, m, n)
    if not (w.I and w.J) or w.I >= frozenset(range(m)) \
            or w.J >= frozenset(range(n)):
        raise ValueError("wall needs nonempty proper index sets")
    delta = delta_of(w, point)
    if delta == 0:
        raise ValueError("point lies on the wall; move strictly off it")
    if delta < 0:
        return -wall_crossing_series(complement_wall(w, m, n, s), point, r, s)

    mu_I = [point.mu[i] for i in sorted(w.I)]
    nu_J = [point.nu[j] for j in sorted(w.J)]
    mu_Ic = [point.mu[i] for i in range(m) if i not in w.I]
    nu_Jc = [point.nu[j] for j in range(n) if j not in w.J]
    caps = (r + 1,) * s
    allvars = tuple(range(s))
    full_ratio = sigma_over_sigma(delta, 1, allvars, caps)
    total = TruncSeries.zero(caps)
    if k != 0:
        # balance of the two factors forces exactly t insertions left;
        # an impossible t (t > s or t < 0) leaves an empty sum
        sizes = (w.t,) if 0 <= w.t <= s else ()
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
    return total.coefficient((r + 1,) * s)


def wall_crossing_genus0(w, point):
    """Genus-zero wall crossing: binomial times delta times two
    connected one-part-smaller numbers (r=1, s=m+n-2)."""
    point = lattice_point(point.mu, point.nu, point.k)
    m, n = len(point.mu), len(point.nu)
    s = m + n - 2
    if sum(point.mu) != sum(point.nu) + s * point.k:
        raise ValueError("point is not genus-zero balanced")
    _check_wall(w, m, n)
    delta = delta_of(w, point)
    if delta == 0:
        return Q(0)
    if delta < 0:
        return -wall_crossing_genus0(complement_wall(w, m, n, s), point)
    k = point.k
    s1 = len(w.I) + len(w.J) - 1
    if k != 0 and w.t != s1:
        # the only insertion split with balanced factors is t = s1
        return Q(0)
    mu_I = tuple(point.mu[i] for i in sorted(w.I))
    nu_J = tuple(point.nu[j] for j in sorted(w.J))
    mu_Ic = tuple(point.mu[i] for i in range(m) if i not in w.I)
    nu_Jc = tuple(point.nu[j] for j in range(n) if j not in w.J)
    s2 = s - s1
    binom = math.comb(m + n - 2, s1)
    h1 = connected_hurwitz(mu_I, nu_J + (delta,), k, 1, s1)
    h2 = connected_hurwitz(mu_Ic + (delta,), nu_Jc, k, 1, s2)
    return Q(binom) * Q(delta) * h1 * h2


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
        f"wall: I={sorted(i + 1 for i in w.I)} "
        f"J={sorted(j + 1 for j in w.J)} t={w.t}",
        f"point: mu={list(point.mu)} nu={list(point.nu)} k={point.k}",
        f"delta: {delta}",
        f"crossing: {value}",
    ])
