"""Public Hurwitz-number API.

Connected numbers come from the commutation engine; disconnected
numbers assemble connected blocks over all ways to split the labeled
parts, with the identical insertions distributed by counts.  evaluate
sends a query to the integer Fock oracle instead where a shape-only
cost rule finds that route clearly cheaper.  One-part numbers in genus
zero have a fully closed polynomial; torus-corrected comparison numbers
replace each insertion by its two-term correction.  A small
line-oriented cache makes repeated CLI queries cheap.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import os
import time
from functools import lru_cache
from typing import NamedTuple

from .series import Q
from .fock import (
    check_query,
    connected_hurwitz,
    disconnected_vev_series,
    hurwitz_sequence,
)
from .oracle import oracle_disconnected


@lru_cache(maxsize=1024)
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
    return math.prod(math.factorial(len(list(g)))
                     for _, g in itertools.groupby(sorted(parts)))


class HurwitzQuery(NamedTuple):
    mu: tuple
    nu: tuple
    k: int
    r: int
    s: int
    connected: bool = True


def make_query(mu, nu, k, r, s, connected=True):
    return HurwitzQuery(*check_query(mu, nu, k, r, s), bool(connected))


def genus_of(q):
    """Genus from the ramification count: (r*s + 2 - m - n)/2.

    May be half-integral; such queries evaluate to zero by parity.
    """
    return Q(q.r * q.s + 2 - len(q.mu) - len(q.nu), 2)


class HurwitzResult(NamedTuple):
    value: object
    query: HurwitzQuery
    method: str
    ms: float


# -- connected numbers with a small memo --------------------------------

@lru_cache(maxsize=8192)
def connected_cached(mu, nu, k, r, s):
    return connected_hurwitz(mu, nu, k, r, s)


# -- disconnected assembly ----------------------------------------------

def _splits(parts):
    """Every way to split a descending tuple in two, as (taken, rest, ways).

    Both halves stay descending; ways is the number of distinct choices
    of labeled positions that take exactly taken.  The take counts of
    the runs of equal parts run through itertools.product: the first
    split takes nothing, the last takes every part.
    """
    runs = [(p, len(list(g))) for p, g in itertools.groupby(parts)]
    for take in itertools.product(*(range(c + 1) for _, c in runs)):
        taken, rest, ways = [], [], 1
        for (p, c), t in zip(runs, take):
            taken += [p] * t
            rest += [p] * (c - t)
            ways *= math.comb(c, t)
        yield tuple(taken), tuple(rest), ways


@lru_cache(maxsize=4096)
def _split_list(parts):
    return tuple(_splits(parts))


def disconnected_hurwitz(mu, nu, k, r, s):
    """Disconnected number: sum over splits of the labeled parts into
    blocks, insertions distributed among blocks by counts.

    Blocks holding neither a mu- nor a nu-part vanish and are skipped;
    the fully empty input at s=0 counts the empty cover once.
    """
    mu, nu, k, r, s = check_query(mu, nu, k, r, s)
    if sum(mu) != sum(nu) + s * k:
        return Q(0)
    return _assembly(mu, nu, k, r, s)


@lru_cache(maxsize=8192)
def _assembly(mu, nu, k, r, s):
    """disconnected_hurwitz on canonical, balanced input."""
    if not mu and not nu:
        return Q(1) if s == 0 else Q(0)
    # anchor the largest remaining mu part (nu part if mu is spent);
    # the spent side contributes () as its anchor and pool
    cut = 0 if mu else 1
    anchor_mu, pool_mu = mu[:1], mu[1:]
    anchor_nu, pool_nu = nu[:cut], nu[cut:]
    # a block with j insertions balances when |block_nu| = |block_mu| - j*k
    nu_by_size = {}
    for taken, rest, ways in _split_list(pool_nu):
        block = anchor_nu + taken
        nu_by_size.setdefault(sum(block), []).append((block, rest, ways))
    total = Q(0)
    for sub_mu, rest_mu, ways_mu in _split_list(pool_mu):
        block_mu = anchor_mu + sub_mu
        size_mu = sum(block_mu)
        for j in range(s + 1):
            fits = nu_by_size.get(size_mu - j * k, ())
            # 2g = r*j + 2 - m - n: a connected block of negative or
            # half-integral genus is zero, so it skips the cache
            room = r * j + 2 - len(block_mu)
            for block_nu, rest_nu, ways_nu in fits:
                if len(block_nu) > room or (room - len(block_nu)) & 1:
                    continue
                piece = connected_cached(block_mu, block_nu, k, r, j)
                if piece == 0:
                    continue
                total += (Q(ways_mu * ways_nu * math.comb(s, j))
                          * piece * _assembly(rest_mu, rest_nu, k, r, s - j))
    return total


# -- one-part closed form -----------------------------------------------

def one_part_closed_genus0(d, m, k):
    """Genus-zero one-part closed form ((m-1)!/2^(m-2)) prod (2d - p k).

    This is the chamber polynomial of the connected number h((d), nu)
    with len(nu) = m, r = 1, s = m - 1, for k > 0: there it equals the
    engine for every nu, and criterion 1 checks it on k = 1..3, d <= 10.
    The dual h(nu, (d), -k) has the same value.  k <= 0 raises
    ValueError: there the point can lie in another chamber, and for
    (1)/(5,1,1), k=-3 the engine gives 7 where the form would give 5.
    d < 1 or m < 2 raises ValueError, and a non-integer d, m or k
    TypeError.
    """
    if operator.index(k) <= 0:
        raise ValueError("the closed genus-zero form needs k > 0")
    if operator.index(d) < 1:
        raise ValueError("need d >= 1")
    if operator.index(m) < 2:
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
    mu, nu, k, _, s = check_query(mu, nu, k, 1, s)
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
    denom = math.prod(mu + nu)
    if aut:
        denom *= aut_factor(mu) * aut_factor(nu)
    return total / denom


# -- cache ---------------------------------------------------------------

class HurwitzCache:
    """Write-through cache of evaluated queries.

    Records are newline-delimited JSON objects with decimal-string
    numerator and denominator.  Lookups also try the swapped query
    (nu, mu, -k), which has the same value.  Loaded keys pass the same
    check_query as a query's.  A line that does not decode to a full
    record, such as the tail of an append cut short, or that fails that
    check, such as a part that is not a positive integer or r = 0, is
    skipped and counted in skipped.
    """

    def __init__(self, path=None):
        self._path = path
        self._mem = {}
        self.skipped = 0
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        key = (*check_query(rec["mu"], rec["nu"], rec["k"],
                                            rec["r"], rec["s"]),
                               rec["connected"])
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


# near a tie the engine's memos, warm across a table, win
_FOCK_MARGIN = 5


def _fock_cheaper(q):
    """Shape-only route rule: True when oracle_disconnected gives q's
    value and is clearly cheaper than the engine.

    The engine's estimate is a series of about (r+2)^s terms per step of
    a sequence of m+n+s operators; the oracle's is the size of its
    alpha-built states, the ket's growing by |k|+1 per insertion.  A
    connected query qualifies only where it equals the disconnected one:
    one mu part with k >= 0 or one nu part with k <= 0 leaves no other
    block able to balance.
    """
    if q.connected and not ((len(q.mu) == 1 and q.k >= 0)
                            or (len(q.nu) == 1 and q.k <= 0)):
        return False
    engine = (q.r + 2) ** q.s * (len(q.mu) + len(q.nu) + q.s)
    fock = math.prod(q.nu) * (abs(q.k) + 1) ** q.s + math.prod(q.mu)
    return _FOCK_MARGIN * fock < engine


def evaluate(q, cache=None):
    """Evaluate a query, consulting and filling the cache if given.

    The method names the route: cache, fock (the oracle, where
    _fock_cheaper picks it) or engine.
    """
    start = time.perf_counter()
    value = cache.lookup(q) if cache is not None else None
    method = "cache"
    if value is None:
        if _fock_cheaper(q):
            route, method = oracle_disconnected, "fock"
        else:
            route = connected_hurwitz if q.connected else disconnected_hurwitz
            method = "engine"
        value = route(q.mu, q.nu, q.k, q.r, q.s)
        if cache is not None:
            cache.store(q, value)
    ms = (time.perf_counter() - start) * 1000.0
    return HurwitzResult(value, q, method, ms)
