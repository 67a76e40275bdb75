"""Structural verification suites over the whole library.

Each criterion_* function checks one theorem-level property at desk
scale — closed forms, oracle equivalence, chamber polynomiality, wall
crossing, the cut-and-join PDE, dualities, the torus correction, and
the genus-zero positivity/homogeneity claims — and returns a
CriterionReport.  The CLI selftest command and the acceptance test
module both run these.
"""
from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from .chambers import (
    all_walls,
    complement_wall,
    delta_of,
    fit_chamber_polynomial,
    lattice_point,
    sign_vector,
    wall,
    wall_crossing_genus0,
    wall_crossing_series,
)
from .cutjoin import verify_cut_and_join
from .fock import connected_hurwitz
from .numbers import (
    aut_factor,
    bounded_profiles,
    cmr_leaky_r1,
    disconnected_hurwitz,
    one_part_closed_genus0,
    partitions_of,
)
from .oracle import oracle_disconnected
from .series import Q

MAX_FAILURES = 10


class CriterionReport(NamedTuple):
    number: int
    name: str
    ok: bool
    checked: int
    failures: list
    detail: str
    elapsed_ms: int


def _report(number, name, t0, checked, failures, extra=""):
    ok = not failures
    detail = f"{checked} cases"
    if failures:
        detail += f", {len(failures)} failing"
        if len(failures) > MAX_FAILURES:
            detail += f" (first {MAX_FAILURES} listed)"
    if extra:
        detail += f"; {extra}"
    return CriterionReport(number, name, ok, checked,
                           failures[:MAX_FAILURES], detail,
                           int((time.perf_counter() - t0) * 1000))


def partitions_with_length(total, length):
    return tuple(p for p in partitions_of(total) if len(p) == length)


def one_part_grid():
    """The (d, m, k, nu) grid shared by criteria 1, 2, and 9."""
    for d in range(1, 11):
        for m in range(2, 6):
            for k in (1, 2, 3):
                rest = d - (m - 1) * k
                if rest < m:
                    continue
                for nu in partitions_with_length(rest, m):
                    yield d, m, k, nu


# -- criteria ------------------------------------------------------------

def criterion_1():
    """One-part closed form matches the engine on the full small grid."""
    t0 = time.perf_counter()
    checked, failures = 0, []
    anchors = {(5, 3, 1, (1, 1, 1)): Q(9), (7, 4, 1, (1, 1, 1, 1)): Q(234)}
    for d, m, k, nu in one_part_grid():
        closed = one_part_closed_genus0(d, m, k)
        engine = connected_hurwitz((d,), nu, k, 1, m - 1)
        checked += 1
        if closed != engine:
            failures.append(f"d={d} nu={nu} k={k}: closed {closed} "
                            f"!= engine {engine}")
        want = anchors.pop((d, m, k, nu), None)
        if want is not None and engine != want:
            failures.append(f"anchor d={d} nu={nu} k={k}: {engine} != {want}")
    if anchors:
        failures.append(f"anchor cases missing from grid: {sorted(anchors)}")
    return _report(1, "one-part closed form", t0, checked, failures)


def criterion_2():
    """k=1 one-part values match the falling product (2d-1)...(2d-(m-2))."""
    t0 = time.perf_counter()
    checked, failures = 0, []
    for d, m, k, nu in one_part_grid():
        if k != 1:
            continue
        closed = Q(math.factorial(m - 1), 2 ** (m - 2))
        for p in range(1, m - 1):
            closed *= 2 * d - p
        engine = connected_hurwitz((d,), nu, k, 1, m - 1)
        checked += 1
        if closed != engine:
            failures.append(f"d={d} nu={nu}: product {closed} "
                            f"!= engine {engine}")
    return _report(2, "k=1 one-part product form", t0, checked, failures)


def oracle_sweep(max_size=8, max_s=3, progress=None):
    """Engine assembly vs the direct Fock oracle over a bounded grid.

    Covers every balanced (mu, nu, k, r, s) with |mu| <= max_size,
    s <= max_s, |k| <= 3, r in {1, 2}.  Returns (checked, failures).
    """
    checked, failures = 0, []
    for a in range(0, max_size + 1):
        mus = partitions_of(a)
        for s in range(0, max_s + 1):
            for k in range(-3, 4):
                b = a - s * k
                if b < 0:
                    continue
                for r in (1, 2):
                    for nu in partitions_of(b):
                        for mu in mus:
                            lhs = disconnected_hurwitz(mu, nu, k, r, s)
                            rhs = oracle_disconnected(mu, nu, k, r, s)
                            checked += 1
                            if lhs != rhs:
                                failures.append(
                                    f"mu={mu} nu={nu} k={k} r={r} s={s}: "
                                    f"engine {lhs} != oracle {rhs}")
                if progress is not None:
                    progress(checked)
    return checked, failures


def criterion_3(progress=None):
    """Engine assembly equals the direct Fock oracle on the full grid."""
    t0 = time.perf_counter()
    checked, failures = oracle_sweep(8, 3, progress)
    return _report(3, "two-route oracle equivalence", t0, checked, failures)


def _random_interior_points(rng, count, max_mn=6, max_s=3):
    """Strictly-in-chamber lattice points with random shapes."""
    found = []
    while len(found) < count:
        m = rng.randint(1, max_mn - 1)
        n = rng.randint(1, max_mn - m)
        s = rng.randint(1, max_s)
        mu = tuple(sorted((rng.randint(1, 9) for _ in range(m)),
                          reverse=True))
        nu = tuple(sorted((rng.randint(1, 9) for _ in range(n)),
                          reverse=True))
        if (sum(mu) - sum(nu)) % s != 0:
            continue
        k = (sum(mu) - sum(nu)) // s
        if abs(k) > 5:
            continue
        point = lattice_point(mu, nu, k)
        if 0 in sign_vector(point, s):
            continue
        found.append((point, s))
    return found


def criterion_4():
    """Connected equals disconnected strictly inside chambers."""
    t0 = time.perf_counter()
    rng = random.Random(41)
    checked, failures = 0, []
    for point, s in _random_interior_points(rng, 50):
        r = rng.choice((1, 2))
        conn = connected_hurwitz(point.mu, point.nu, point.k, r, s)
        disc = disconnected_hurwitz(point.mu, point.nu, point.k, r, s)
        checked += 1
        if conn != disc:
            failures.append(f"{point} r={r} s={s}: connected {conn} "
                            f"!= disconnected {disc}")
    return _report(4, "in-chamber connected = disconnected", t0, checked,
                   failures)


CHAMBER_BASES = (
    (1, 2, ((9, 3), (6, 2), 2)),
    (2, 2, ((5,), (1,), 2)),
    (1, 3, ((8, 3), (5,), 2)),
    (2, 1, ((6,), (3, 2), 1)),
    (2, 2, ((9, 3), (6, 2), 2)),
)


def criterion_5():
    """Chamber fits: degree bound, parity gaps, exact held-out points."""
    t0 = time.perf_counter()
    checked, failures = 0, []
    for r, s, (mu, nu, k) in CHAMBER_BASES:
        base = lattice_point(mu, nu, k)
        label = f"r={r} s={s} base={mu}/{nu}/k={k}"
        checked += 1
        try:
            poly = fit_chamber_polynomial(base, r, s)
        except Exception as exc:  # held-out mismatch or sampling failure
            failures.append(f"{label}: {exc}")
            continue
        bound = (r + 1) * s + 1 - len(base.mu) - len(base.nu)
        if poly.degree != bound or poly.realized_degree() > bound:
            failures.append(f"{label}: degree {poly.realized_degree()} "
                            f"breaks bound {bound}")
        bad_parity = [e for e, c in poly.coeffs.items()
                      if c != 0 and (bound - sum(e)) % 2 != 0]
        if bad_parity:
            failures.append(f"{label}: off-parity monomials {bad_parity}")
    return _report(5, "piecewise polynomiality", t0, checked, failures)


def find_adjacent_pair(w, m, n, s, rng, part_max=14, tries=200000):
    """Two interior lattice points separated only by wall w.

    Their sign vectors agree everywhere except on w and its complement
    (the same hyperplane labeled from the other side), where both flip.
    """
    walls = all_walls(m, n, s)
    iw = walls.index(w)
    pair_labels = {iw, walls.index(complement_wall(w, m, n, s))}
    plus = {}
    minus = {}
    for _ in range(tries):
        mu = tuple(sorted((rng.randint(1, part_max) for _ in range(m)),
                          reverse=True))
        nu = tuple(sorted((rng.randint(1, part_max) for _ in range(n)),
                          reverse=True))
        if (sum(mu) - sum(nu)) % s != 0:
            continue
        k = (sum(mu) - sum(nu)) // s
        point = lattice_point(mu, nu, k)
        sv = sign_vector(point, s)
        if 0 in sv:
            continue
        rest = tuple(sv[i] for i in range(len(walls))
                     if i not in pair_labels)
        side = plus if sv[iw] > 0 else minus
        other = minus if sv[iw] > 0 else plus
        if rest in other:
            a, b = point, other[rest]
            return (a, b) if sv[iw] > 0 else (b, a)
        side.setdefault(rest, point)
    raise RuntimeError(f"no adjacent pair found across {w}")


NAMED_WALL = (wall((0,), (0,), 1), 2, 2, 2)  # I={1}, J={1}, t=1 at r=1, s=2

# a strictly interior k=1 lattice point off the named wall: at k=1 the
# t=0,1,2 copies of a wall sit at unit spacing, so no adjacent lattice
# pair exists with both members at k=1, but the jump identity is a
# polynomial identity in (mu, nu, k) and may be evaluated there
K1_EVAL_POINT = ((9, 3), (5, 5), 1)


def criterion_6():
    """Wall crossing: series = fitted-polynomial jump = genus-0 form."""
    t0 = time.perf_counter()
    rng = random.Random(61)
    cases = [
        NAMED_WALL + ((K1_EVAL_POINT,),),
        (wall((1,), (1,), 1), 2, 2, 2, ()),
        (wall((0,), (0, 1), 2), 2, 3, 3, ()),
    ]
    checked, failures = 0, []
    for w, m, n, s, extra in cases:
        label = f"wall I={sorted(w.I)} J={sorted(w.J)} t={w.t} m={m} n={n}"
        try:
            p_plus, p_minus = find_adjacent_pair(w, m, n, s, rng)
        except RuntimeError as exc:
            failures.append(f"{label}: {exc}")
            continue
        try:
            f_plus = fit_chamber_polynomial(p_plus, 1, s)
            f_minus = fit_chamber_polynomial(p_minus, 1, s)
        except Exception as exc:
            failures.append(f"{label}: fit failed: {exc}")
            continue
        double = lattice_point(tuple(2 * p for p in p_plus.mu),
                               tuple(2 * p for p in p_plus.nu),
                               2 * p_plus.k)
        points = [p_plus, p_minus, double]
        points += [lattice_point(mu, nu, k) for mu, nu, k in extra]
        for point in points:
            series = wall_crossing_series(w, point, 1, s)
            jump = (f_plus.evaluate(point.mu, point.nu)
                    - f_minus.evaluate(point.mu, point.nu))
            genus0 = wall_crossing_genus0(w, point)
            checked += 1
            if not series == jump == genus0:
                failures.append(f"{label} at {point}: series {series}, "
                                f"poly jump {jump}, genus0 {genus0}")
    return _report(6, "wall-crossing identity", t0, checked, failures)


def criterion_7():
    """The cut-and-join PDE closes on every small slice."""
    t0 = time.perf_counter()
    checked, failures = 0, []
    for total in range(0, 6):
        for nu in partitions_of(total):
            for k in (-1, 0, 1, 2):
                for r in (1, 2):
                    for s in (1, 2):
                        rep = verify_cut_and_join(nu, k, r, s)
                        checked += 1
                        if not rep["ok"]:
                            failures.append(
                                f"nu={nu} k={k} r={r} s={s}: "
                                f"{rep['mismatches'][:2]}")
    return _report(7, "cut-and-join PDE", t0, checked, failures)


def _random_balanced_query(rng, odd_parity=None):
    """A random balanced (mu, nu, k, r, s), optionally with rs+m+n odd."""
    while True:
        n = rng.randint(1, 3)
        s = rng.randint(0, 3)
        r = rng.randint(1, 2)
        k = rng.randint(-3, 3)
        nu = tuple(sorted((rng.randint(1, 6) for _ in range(n)),
                          reverse=True))
        total = sum(nu) + s * k
        if not 1 <= total <= 12:
            continue
        mus = partitions_of(total)
        mu = mus[rng.randrange(len(mus))]
        if len(mu) > 4:
            continue
        if odd_parity is not None:
            odd = (r * s + len(mu) + len(nu)) % 2 == 1
            if odd != odd_parity:
                continue
        return mu, nu, k, r, s


def criterion_8():
    """Duality under (mu, nu, k) -> (nu, mu, -k); odd-parity vanishing."""
    t0 = time.perf_counter()
    rng = random.Random(83)
    checked, failures = 0, []
    for i in range(100):
        mu, nu, k, r, s = _random_balanced_query(rng)
        f = connected_hurwitz if i % 2 == 0 else disconnected_hurwitz
        lhs = f(mu, nu, k, r, s)
        rhs = f(nu, mu, -k, r, s)
        checked += 1
        if lhs != rhs:
            failures.append(f"{f.__name__} mu={mu} nu={nu} k={k} r={r} "
                            f"s={s}: {lhs} != dual {rhs}")
    for i in range(100):
        mu, nu, k, r, s = _random_balanced_query(rng, odd_parity=True)
        f = connected_hurwitz if i % 2 == 0 else disconnected_hurwitz
        val = f(mu, nu, k, r, s)
        checked += 1
        if val != 0:
            failures.append(f"{f.__name__} mu={mu} nu={nu} k={k} r={r} "
                            f"s={s}: odd parity but value {val}")
    return _report(8, "duality and parity vanishing", t0, checked, failures)


def criterion_9():
    """Torus-corrected values collapse to completed ones at k = +-1,
    and on the genus-zero one-part grid."""
    t0 = time.perf_counter()
    rng = random.Random(907)
    checked, failures = 0, []
    done = 0
    while done < 20:
        mu, nu, k, _r, s = _random_balanced_query(rng)
        if k not in (1, -1):
            continue
        done += 1
        raw = cmr_leaky_r1(mu, nu, k, s)
        want = disconnected_hurwitz(mu, nu, k, 1, s)
        checked += 1
        if raw != want:
            failures.append(f"mu={mu} nu={nu} k={k} s={s}: corrected {raw}"
                            f" != completed {want}")
        scaled = cmr_leaky_r1(mu, nu, k, s, aut=True)
        checked += 1
        if scaled * aut_factor(mu) * aut_factor(nu) != want:
            failures.append(f"mu={mu} nu={nu} k={k} s={s}: aut flag "
                            f"mismatch ({scaled})")
    for d, m, k, nu in one_part_grid():
        raw = cmr_leaky_r1((d,), nu, k, m - 1)
        want = disconnected_hurwitz((d,), nu, k, 1, m - 1)
        checked += 1
        if raw != want:
            failures.append(f"d={d} nu={nu} k={k}: corrected {raw} "
                            f"!= completed {want}")
    return _report(9, "torus correction consistency", t0, checked, failures)


def genus0_grid():
    """(mu, nu, k, s) with r=1, s=m+n-2 >= 1, m,n <= 3, parts <= 6,
    |k| <= 4."""
    for m in range(1, 4):
        for n in range(1, 4):
            s = m + n - 2
            if s < 1:
                continue
            for mu in bounded_profiles(6, m):
                for nu in bounded_profiles(6, n):
                    diff = sum(mu) - sum(nu)
                    if diff % s != 0:
                        continue
                    k = diff // s
                    if abs(k) > 4:
                        continue
                    yield mu, nu, k, s


def criterion_10():
    """Genus-zero positivity, the s=1 anchor, and K^(s-1) homogeneity.

    Every value on genus0_grid must be positive, and every s=1 value
    must be exactly 1.  Basis: the torus correction does not touch
    genus zero, so these are the leaky tropical counts of
    Cavalieri-Markwig-Ranganathan; a single step is one trivalent
    vertex with no internal edge, counted once.  Two independent routes
    back the engine's values here: the one-part closed form of
    criterion 1 (e.g. (4)/(1,1), k=2 gives 1) and the Fock oracle of
    criterion 3 (every k=2 point with |mu| <= 8).  No grid value
    vanishes, so the earlier predicate "h = 0 iff k = 2K > 0 and K
    divides every part" is false: it holds with K=1 at every k=2 point.
    The repository's sources do not prove positivity in general; this
    is a check on the grid, not a theorem.

    Where k = 2K with K > 1 dividing every part, the value must equal
    K^(s-1) times the k=2 value at the parts divided by K.
    """
    t0 = time.perf_counter()
    checked, failures = 0, []
    homogeneity_failures = 0
    for mu, nu, k, s in genus0_grid():
        val = connected_hurwitz(mu, nu, k, 1, s)
        checked += 1
        if val <= 0:
            failures.append(f"mu={mu} nu={nu} k={k} s={s}: value {val} "
                            f"is not positive")
        elif s == 1 and val != 1:
            failures.append(f"mu={mu} nu={nu} k={k} s={s}: value {val} "
                            f"!= 1 for a single step")
        if k > 0 and k % 2 == 0:
            K = k // 2
            if K > 1 and all(p % K == 0 for p in mu + nu):
                tilde_mu = tuple(p // K for p in mu)
                tilde_nu = tuple(p // K for p in nu)
                base = connected_hurwitz(tilde_mu, tilde_nu, 2, 1, s)
                checked += 1
                if val != Q(K) ** (s - 1) * base:
                    homogeneity_failures += 1
                    failures.append(
                        f"mu={mu} nu={nu} k={k}: {val} != K^(s-1) * {base}")
    extra = ("homogeneity clean" if homogeneity_failures == 0
             else f"{homogeneity_failures} homogeneity failures")
    return _report(10, "genus-zero positivity and homogeneity", t0, checked,
                   failures, extra=extra)


ALL_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_all(numbers=None):
    """Run the selected criteria (default all) and return their reports."""
    selected = sorted(ALL_CRITERIA) if numbers is None else list(numbers)
    return [ALL_CRITERIA[i]() for i in selected]


def format_report(rep):
    mark = "PASS" if rep.ok else "FAIL"
    line = (f"[{mark}] criterion {rep.number}: {rep.name} "
            f"({rep.detail}; {rep.elapsed_ms} ms)")
    if rep.failures:
        line += "".join(f"\n    {f}" for f in rep.failures)
    return line
