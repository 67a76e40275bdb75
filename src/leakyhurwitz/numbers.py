"""Public Hurwitz-number API.

Connected numbers come from the commutation engine; disconnected
numbers assemble connected blocks over all ways to split the labeled
parts, with the identical insertions distributed by counts.  One-part
numbers additionally have a closed product-of-sigmas form and, in genus
zero, a fully closed polynomial; torus-corrected comparison numbers
replace each insertion by its two-term correction.  A small
line-oriented cache makes repeated CLI queries cheap.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from functools import lru_cache
from typing import NamedTuple

from .series import (
    Q,
    sigma_over_sigma,
    sigma_series,
    zvars_form,
)
from .fock import (
    canonical_partition,
    connected_hurwitz,
    disconnected_vev_series,
    hurwitz_sequence,
)


@lru_cache(maxsize=None)
def partitions_of(total, max_part=None):
    """Partitions of total with parts <= max_part, as descending tuples
    in descending lexicographic order; partitions_of(0) == ((),)."""
    if total < 0:
        return ()
    if total == 0:
        return ((),)
    cap = total if max_part is None else min(max_part, total)
    return tuple((first,) + rest for first in range(cap, 0, -1)
                 for rest in partitions_of(total - first, first))


def bounded_profiles(max_part, length):
    """Descending profiles of exactly length parts in 1..max_part, in
    descending lexicographic order."""
    return tuple(itertools.combinations_with_replacement(
        range(max_part, 0, -1), length))


def aut_factor(parts):
    """Order of the automorphism group: product of multiplicity factorials."""
    out = 1
    run = 1
    parts = tuple(sorted(parts))
    for i, p in enumerate(parts):
        if i and p == parts[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out


class HurwitzQuery(NamedTuple):
    mu: tuple
    nu: tuple
    k: int
    r: int
    s: int
    connected: bool = True


def make_query(mu, nu, k, r, s, connected=True):
    mu = canonical_partition(mu)
    nu = canonical_partition(nu)
    if r < 1:
        raise ValueError("need r >= 1")
    if s < 0:
        raise ValueError("need s >= 0")
    return HurwitzQuery(mu, nu, int(k), int(r), int(s), bool(connected))


def genus_of(q):
    """Genus from the ramification count: (r*s + 2 - m - n)/2.

    May be half-integral; such queries evaluate to zero by parity.
    """
    return Q(q.r * q.s + 2 - len(q.mu) - len(q.nu), 2)


def is_balanced(q):
    return sum(q.mu) == sum(q.nu) + q.s * q.k


class HurwitzResult(NamedTuple):
    value: object
    query: HurwitzQuery
    method: str
    ms: float


# -- connected numbers with a small memo --------------------------------

_CONN_CACHE = {}


def connected_cached(mu, nu, k, r, s):
    key = (mu, nu, k, r, s)
    hit = _CONN_CACHE.get(key)
    if hit is None:
        hit = connected_hurwitz(mu, nu, k, r, s)
        _CONN_CACHE[key] = hit
    return hit


def clear_number_caches():
    _CONN_CACHE.clear()


# -- disconnected assembly ----------------------------------------------

def _count_multiplicities(parts):
    vals = []
    counts = []
    for p in parts:
        if vals and vals[-1] == p:
            counts[-1] += 1
        else:
            vals.append(p)
            counts.append(1)
    return vals, counts


def _submultisets(parts):
    """All submultisets of a descending tuple, with selection counts.

    Yields (subset_tuple, ways) where ways is the number of distinct
    choices of labeled positions realizing the subset.
    """
    vals, counts = _count_multiplicities(parts)
    picks = [range(c + 1) for c in counts]
    for take in itertools.product(*picks):
        sub = []
        ways = 1
        for v, c, t in zip(vals, counts, take):
            sub.extend([v] * t)
            ways *= math.comb(c, t)
        yield tuple(sub), ways


def _remove_submultiset(parts, sub):
    out = list(parts)
    for p in sub:
        out.remove(p)
    return tuple(out)


def _balancing_counts(need, k, s):
    """The insertion counts 0 <= j <= s with need == j * k."""
    if k == 0:
        return range(s + 1) if need == 0 else ()
    j, rem = divmod(need, k)
    return (j,) if rem == 0 and 0 <= j <= s else ()


def disconnected_hurwitz(mu, nu, k, r, s):
    """Disconnected number: sum over splits of the labeled parts into
    blocks, insertions distributed among blocks by counts.

    Blocks holding neither a mu- nor a nu-part vanish and are skipped;
    the fully empty input at s=0 counts the empty cover once.
    """
    mu = canonical_partition(mu)
    nu = canonical_partition(nu)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    if sum(mu) != sum(nu) + s * k:
        return Q(0)
    memo = {}

    def rec(rem_mu, rem_nu, rem_s):
        if not rem_mu and not rem_nu:
            return Q(1) if rem_s == 0 else Q(0)
        key = (rem_mu, rem_nu, rem_s)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # anchor the largest remaining mu part (nu part if mu is spent)
        if rem_mu:
            anchor, pool_mu = rem_mu[0], rem_mu[1:]
            total = Q(0)
            for sub_mu, ways_mu in _submultisets(pool_mu):
                block_mu = (anchor,) + sub_mu
                size_mu = sum(block_mu)
                rest_mu = _remove_submultiset(pool_mu, sub_mu)
                for sub_nu, ways_nu in _submultisets(rem_nu):
                    counts = _balancing_counts(size_mu - sum(sub_nu), k,
                                               rem_s)
                    if not counts:
                        continue
                    rest_nu = _remove_submultiset(rem_nu, sub_nu)
                    for j in counts:
                        piece = connected_cached(block_mu, sub_nu, k, r, j)
                        if piece == 0:
                            continue
                        total += (Q(ways_mu * ways_nu * math.comb(rem_s, j))
                                  * piece * rec(rest_mu, rest_nu, rem_s - j))
        else:
            anchor, pool_nu = rem_nu[0], rem_nu[1:]
            total = Q(0)
            for sub_nu, ways_nu in _submultisets(pool_nu):
                block_nu = (anchor,) + sub_nu
                counts = _balancing_counts(-sum(block_nu), k, rem_s)
                if not counts:
                    continue
                rest_nu = _remove_submultiset(pool_nu, sub_nu)
                for j in counts:
                    piece = connected_cached((), block_nu, k, r, j)
                    if piece == 0:
                        continue
                    total += (Q(ways_nu * math.comb(rem_s, j))
                              * piece * rec((), rest_nu, rem_s - j))
        memo[key] = total
        return total

    return rec(mu, nu, s)


# -- one-part closed forms ----------------------------------------------

def one_part_connected_series(d, nu, k, r, s):
    """Connected one-part number from the closed product of sigmas.

    Valid for k > 0.  The central 1/sigma(z_[s]) is folded into the
    first nu factor as an exact ratio of unit series.
    """
    if k <= 0:
        raise ValueError("the closed one-part product needs k > 0")
    nu = canonical_partition(nu)
    if not nu:
        raise ValueError("nu must be nonempty")
    d = int(d)
    if d <= 0:
        raise ValueError("d must be positive")
    if d != sum(nu) + s * k:
        return Q(0)
    if s == 0:
        return Q(1, d) if nu == (d,) else Q(0)
    caps = (r + 1,) * s
    # ratio sigma(nu_0 z_[s]) / sigma(z_[s])
    total = sigma_over_sigma(nu[0], 1, range(s), caps)
    for part in nu[1:]:
        total = total * sigma_series(zvars_form(part, range(s), s), caps)
    for p in range(1, s + 1):
        # linear form k*(z_1+..+z_{p-1}) + (d-(p-1)k)*z_p, 1-indexed
        form = [0] * s
        for q_ in range(p - 1):
            form[q_] = k
        form[p - 1] = d - (p - 1) * k
        total = total * sigma_series(tuple(form), caps)
    denom = Q(d)
    for part in nu:
        denom *= part
    return total.coefficient((r + 1,) * s) / denom


def one_part_closed_genus0(d, m, k):
    """Genus-zero one-part closed form ((m-1)!/2^(m-2)) prod (2d - p k).

    This is the chamber polynomial of the connected number h((d), nu)
    with len(nu) = m, r = 1, s = m - 1, for k > 0: there it equals the
    engine for every nu, and criterion 1 checks it on k = 1..3, d <= 10.
    The dual h(nu, (d), -k) has the same value.  k <= 0 raises
    ValueError: there the point can lie in another chamber, and for
    (1)/(5,1,1), k=-3 the engine gives 7 where the form would give 5.
    """
    if k <= 0:
        raise ValueError("the closed genus-zero form needs k > 0")
    if m < 2:
        raise ValueError("need at least two nu parts")
    value = Q(math.factorial(m - 1), 2 ** (m - 2))
    for p in range(1, m - 1):
        value *= (2 * d - p * k)
    return value


# -- torus-corrected comparison numbers ----------------------------------

def cmr_leaky_r1(mu, nu, k, s, aut=False):
    """Torus-corrected numbers at r=1.

    Each insertion is the square-extracted generating operator minus
    c_k = (k^2-1)/24 times a plain boson of the same energy.  Expanding
    the product over the s slots picks, per slot, either the z^2 or the
    z^0 coefficient; the slots do not commute, so every 0/2 pattern is
    extracted separately rather than collapsed binomially.  With
    aut=True the result also divides by |Aut mu| |Aut nu|.
    """
    mu = canonical_partition(mu)
    nu = canonical_partition(nu)
    if s < 0:
        raise ValueError("need s >= 0")
    if sum(mu) != sum(nu) + s * k:
        return Q(0)
    series = disconnected_vev_series(hurwitz_sequence(mu, nu, k, s),
                                     (2,) * s)
    c_k = Q(k * k - 1, 24)
    total = Q(0)
    for pattern in itertools.product((2, 0), repeat=s):
        zeros = pattern.count(0)
        if zeros and c_k == 0:
            continue
        total += (-c_k) ** zeros * series.coefficient(pattern)
    denom = Q(1)
    for p in mu + nu:
        denom *= p
    if aut:
        denom *= aut_factor(mu) * aut_factor(nu)
    return total / denom


# -- cache ---------------------------------------------------------------

class HurwitzCache:
    """Write-through cache of evaluated queries.

    Records are newline-delimited JSON objects with decimal-string
    numerator and denominator.  Lookups also try the swapped query
    (nu, mu, -k), which has the same value.  Readers take no lock on
    the in-memory dict beyond the GIL; writers serialize on a lock.
    A line that does not decode to a full record, such as the tail of
    an append cut short, is skipped and counted in skipped.
    """

    def __init__(self, path=None):
        self._path = path
        self._mem = {}
        self._lock = threading.Lock()
        self.skipped = 0
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        key = (tuple(rec["mu"]), tuple(rec["nu"]), rec["k"],
                               rec["r"], rec["s"], rec["connected"])
                        value = Q(int(rec["num"]), int(rec["den"]))
                    except (ValueError, KeyError, TypeError,
                            ZeroDivisionError):
                        self.skipped += 1
                        continue
                    self._mem[key] = value

    @staticmethod
    def _key(q):
        return (q.mu, q.nu, q.k, q.r, q.s, q.connected)

    @staticmethod
    def _dual_key(q):
        return (q.nu, q.mu, -q.k, q.r, q.s, q.connected)

    def lookup(self, q):
        hit = self._mem.get(self._key(q))
        if hit is None:
            hit = self._mem.get(self._dual_key(q))
        return hit

    def store(self, q, value):
        with self._lock:
            self._mem[self._key(q)] = value
            if self._path:
                num = value.numerator
                den = value.denominator
                rec = {
                    "mu": list(q.mu), "nu": list(q.nu), "k": q.k,
                    "r": q.r, "s": q.s, "connected": q.connected,
                    "num": str(num), "den": str(den),
                }
                line = (json.dumps(rec, sort_keys=True) + "\n").encode()
                with open(self._path, "a+b") as fh:
                    # a file cut mid-record gets its own line ended first,
                    # so this record is not glued onto the fragment
                    if fh.tell():
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            line = b"\n" + line
                    fh.write(line)

    def __len__(self):
        return len(self._mem)


def evaluate(q, cache=None):
    """Evaluate a query, consulting and filling the cache if given."""
    start = time.perf_counter()
    value = cache.lookup(q) if cache is not None else None
    method = "cache"
    if value is None:
        if q.connected:
            value = connected_hurwitz(q.mu, q.nu, q.k, q.r, q.s)
            method = "engine"
        else:
            value = disconnected_hurwitz(q.mu, q.nu, q.k, q.r, q.s)
            method = "inclusion-exclusion"
        if cache is not None:
            cache.store(q, value)
    ms = (time.perf_counter() - start) * 1000.0
    return HurwitzResult(value, q, method, ms)
