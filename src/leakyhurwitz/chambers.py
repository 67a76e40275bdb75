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
import random
from typing import NamedTuple

from .series import Q, TruncSeries, sigma_over_sigma
from .fock import (
    alpha_op,
    canonical_partition,
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
                        int(k))


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
    return Wall(frozenset(int(i) for i in I), frozenset(int(j) for j in J),
                int(t))


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
            term = c
            for x, e in zip(coords, exps):
                term *= Q(x) ** e
            total += term
        return total

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


def _solve_exact(rows, rhs):
    """Gaussian elimination over exact rationals; rows is square."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ChamberSampleError("sample matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Q(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def _in_chamber_samples(base, s, signs, rng, want, exclude):
    """Yield distinct in-chamber lattice points near base.

    Samples perturb integer scalings of the base.  Scaling multiplies
    every wall delta by the scale while a radius-rho perturbation of
    the parts moves any delta by at most 2*rho*(m+n) (the slope bound
    of sum(mu_I) - sum(nu_J) - t*k with k recomputed from the balance),
    so choosing scale > 2*radius*(m+n) keeps the whole perturbation box
    strictly inside the chamber.  Points in exclude are not re-yielded.
    """
    m, n = len(base.mu), len(base.nu)
    seen = set(exclude)
    produced = 0
    attempts = 0
    max_attempts = 4000 * max(want, 1)
    margin = 2 * (m + n)
    while produced < want:
        if attempts >= max_attempts:
            raise ChamberSampleError(
                f"gave up after {attempts} attempts "
                f"({produced}/{want} samples found)")
        attempts += 1
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
        produced += 1
        yield cand


def fit_chamber_polynomial(base, r, s, rng=None, holdout=5):
    """Fit the chamber polynomial through exact interpolation.

    Samples in-chamber lattice points with the same sign vector as
    base until the monomial system (degrees D, D-2, ... only) has full
    rank, solves it exactly, then demands exact equality on holdout
    fresh points.  A held-out mismatch raises ChamberFitError.
    """
    if s < 1:
        raise ValueError("chamber fits need at least one insertion")
    base = lattice_point(base.mu, base.nu, base.k)
    if sum(base.mu) != sum(base.nu) + s * base.k:
        raise ValueError("base point violates the energy balance")
    m, n = len(base.mu), len(base.nu)
    signs = sign_vector(base, s)
    if 0 in signs:
        raise ValueError("base point lies on a wall")
    degree = (r + 1) * s + 1 - m - n
    if degree < 0:
        return ChamberPoly(m, n, r, s, degree, {}, base, signs)
    rng = rng if rng is not None else random.Random(20240 + degree)
    monomials = _parity_monomials(m + n, degree)
    nmono = len(monomials)

    rows, rhs, points = [], [], []
    reduced = []  # row-echelon copies for the rank test

    def rank_accepts(row):
        work = list(row)
        for red in reduced:
            piv = next(i for i, x in enumerate(red) if x != 0)
            if work[piv] != 0:
                f = work[piv] / red[piv]
                work = [x - f * y for x, y in zip(work, red)]
        if any(x != 0 for x in work):
            reduced.append(work)
            return True
        return False

    sampler = _in_chamber_samples(base, s, signs, rng,
                                  want=40 * nmono + holdout + 20,
                                  exclude=[])
    for cand in sampler:
        coords = cand.mu + cand.nu
        row = [_eval_monomial(e, coords) for e in monomials]
        if not rank_accepts(row):
            continue
        rows.append(row)
        rhs.append(connected_hurwitz(cand.mu, cand.nu, cand.k, r, s))
        points.append(cand)
        if len(rows) == nmono:
            break
    if len(rows) < nmono:
        raise ChamberSampleError(
            f"only {len(rows)} of {nmono} independent samples found")

    sol = _solve_exact(rows, rhs)
    coeffs = {e: c for e, c in zip(monomials, sol) if c != 0}
    poly = ChamberPoly(m, n, r, s, degree, coeffs, base, signs)

    for cand in _in_chamber_samples(base, s, signs, rng,
                                    want=holdout, exclude=points):
        expect = connected_hurwitz(cand.mu, cand.nu, cand.k, r, s)
        got = poly.evaluate(cand.mu, cand.nu)
        if got != expect:
            raise ChamberFitError(
                f"held-out point {cand} evaluates to {got}, engine says "
                f"{expect}")
    return poly


# -- wall crossing -----------------------------------------------------

def disconnected_series(left_alphas, insertion_vars, right_alphas, k, caps):
    """Disconnected correlator series for a mixed alpha/insertion shape.

    left_alphas and right_alphas are signed boson energies placed left
    and right of the insertion block; insertion_vars lists the
    z-variable index of each energy -k insertion.  Assembled by
    summing connected pieces over set partitions.
    """
    ops = [alpha_op(e) for e in left_alphas]
    ops += [insertion_op(-k, v) for v in insertion_vars]
    ops += [alpha_op(e) for e in right_alphas]
    if not ops:
        return TruncSeries.const(tuple(caps), Q(1))
    if sum(op.energy for op in ops) != 0:
        return TruncSeries.zero(tuple(caps))
    return disconnected_vev_series(ops, caps)


def _h_factor(left_alphas, insertion_vars, right_alphas, k, caps):
    """One H factor of the crossing formula: the disconnected series
    divided by the product of the boson energies' absolute values."""
    denom = Q(1)
    for e in left_alphas + right_alphas:
        denom *= abs(e)
    return (disconnected_series(left_alphas, insertion_vars, right_alphas,
                                k, caps) * (Q(1) / denom))


def wall_crossing_series(w, point, r, s):
    """Wall-crossing value from the quadratic correlator formula.

    Returns the jump (delta>0 side minus delta<0 side) of the chamber
    polynomials across wall w, evaluated at point.  The point must be
    strictly off the wall; delta = 0 is rejected.
    """
    point = lattice_point(point.mu, point.nu, point.k)
    m, n = len(point.mu), len(point.nu)
    if sum(point.mu) != sum(point.nu) + s * point.k:
        raise ValueError("point violates the energy balance")
    if not (w.I and w.J) or w.I >= frozenset(range(m)) \
            or w.J >= frozenset(range(n)):
        raise ValueError("wall needs nonempty proper index sets")
    delta = delta_of(w, point)
    if delta == 0:
        raise ValueError("point lies on the wall; move strictly off it")
    if delta < 0:
        return -wall_crossing_series(complement_wall(w, m, n, s), point, r, s)

    k = point.k
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
    for exps, c in sorted(poly.coeffs.items(), reverse=True):
        names = [f"m{i + 1}" for i in range(poly.m)]
        names += [f"n{j + 1}" for j in range(poly.n)]
        mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e) or "1"
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
