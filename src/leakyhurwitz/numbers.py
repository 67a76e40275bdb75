"""Public Hurwitz-number API and the one input check.

Connected numbers come from the commutation engine; disconnected numbers
assemble connected blocks over all ways to split the labeled parts, with
the identical insertions distributed by counts.  evaluate sends a query,
as its dual, to the integer Fock oracle where a shape-only cost rule
finds that route clearly cheaper; the assembly's inversion there keeps
the orientation it is given.  The engine (fock, and through it series)
loads at the first query that needs it.  One-part numbers in genus zero
have a fully closed polynomial; torus-corrected comparison numbers
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
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple

from .oracle import oracle_disconnected


def canonical_partition(parts):
    """Parts as a descending tuple of ints; a nonpositive part raises
    ValueError and a non-integer part, such as 2.5, TypeError."""
    parts = sorted(map(operator.index, parts), reverse=True)
    if parts and parts[-1] <= 0:
        raise ValueError("partition parts must be positive")
    return tuple(parts)


def check_query(mu, nu, k, r, s):
    """The library's one input check.  Returns (mu, nu, k, r, s) with
    both partitions canonical; a non-integer k, r or s raises TypeError,
    and an r below 1 or a negative s ValueError."""
    mu, nu = canonical_partition(mu), canonical_partition(nu)
    k, r, s = operator.index(k), operator.index(r), operator.index(s)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    return mu, nu, k, r, s


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


_P = [1]


def partition_count(n):
    """p(n) by Euler's pentagonal recurrence, memoized in _P; 0 for n < 0."""
    if n < 0:
        return 0
    while len(_P) <= n:
        m, total, j = len(_P), 0, 1
        while (g := j * (3 * j - 1) // 2) <= m:
            term = _P[m - g] + (_P[m - g - j] if g + j <= m else 0)
            total += term if j & 1 else -term
            j += 1
        _P.append(total)
    return _P[n]


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


def twice_genus(q):
    """2g = r*s + 2 - m - n, from the ramification count."""
    return q.r * q.s + 2 - len(q.mu) - len(q.nu)


def genus_of(q):
    """Genus, twice_genus(q)/2.

    May be half-integral; such queries evaluate to zero by parity.
    """
    return Q(twice_genus(q), 2)


class HurwitzResult(NamedTuple):
    value: object
    query: HurwitzQuery
    method: str
    ms: float


# -- connected numbers with a small memo --------------------------------

def _vanishes(mu, nu, k, r, s):
    """True when the query is unbalanced or of half-integral genus."""
    return sum(mu) != sum(nu) + s * k or (r * s - len(mu) - len(nu)) & 1


@lru_cache(maxsize=8192)
def connected_cached(mu, nu, k, r, s):
    if _vanishes(mu, nu, k, r, s):
        return Q(0)
    from .fock import connected_hurwitz
    return connected_hurwitz(mu, nu, k, r, s)


# -- disconnected assembly ----------------------------------------------

@lru_cache(maxsize=4096)
def _splits(parts):
    """Every way to split a descending tuple in two, as a tuple of
    (taken, rest, ways); memoized, so parts must be a tuple.

    Both halves stay descending; ways is the number of distinct choices
    of labeled positions that take exactly taken.  The take counts of
    the runs of equal parts run through itertools.product: the first
    split takes nothing, the last takes every part.
    """
    runs = [(p, len(list(g))) for p, g in itertools.groupby(parts)]
    out = []
    for take in itertools.product(*(range(c + 1) for _, c in runs)):
        taken, rest, ways = [], [], 1
        for (p, c), t in zip(runs, take):
            taken += [p] * t
            rest += [p] * (c - t)
            ways *= math.comb(c, t)
        out.append((tuple(taken), tuple(rest), ways))
    return tuple(out)


def disconnected_hurwitz(mu, nu, k, r, s):
    """Disconnected number: sum over splits of the labeled parts into
    blocks, insertions distributed among blocks by counts.

    Blocks holding neither a mu- nor a nu-part vanish and are skipped;
    the fully empty input at s=0 counts the empty cover once.  The
    blocks' r*j - m_b - n_b add up to r*s - m - n, so when that is odd
    every split holds a block of half-integral genus and the number is
    zero.
    """
    mu, nu, k, r, s = check_query(mu, nu, k, r, s)
    if _vanishes(mu, nu, k, r, s):
        return Q(0)
    return _assembly(mu, nu, k, r, s)


@lru_cache(maxsize=8192)
def _assembly(mu, nu, k, r, s):
    """disconnected_hurwitz on canonical, balanced input."""
    if not mu and not nu:
        return Q(1) if s == 0 else Q(0)
    return _block_sum(mu, nu, k, r, s, connected_cached, _assembly)


def _block_sum(mu, nu, k, r, s, connected, disconnected, proper=False):
    """Sum over the blocks holding the anchor part, each with j insertions,
    of ways * C(s, j) * connected(block) * disconnected(rest); proper
    leaves out the full block, whose term is the connected number.  The
    terms add up in ints over the lcm of their denominators, and a term
    whose block or rest is zero is skipped."""
    # anchor the largest remaining mu part (nu part if mu is spent);
    # the spent side contributes () as its anchor and pool
    cut = 0 if mu else 1
    anchor_mu, pool_mu = mu[:1], mu[1:]
    anchor_nu, pool_nu = nu[:cut], nu[cut:]
    # a block with j insertions balances when |block_nu| = |block_mu| - j*k
    nu_by_size = {}
    for taken, rest, ways in _splits(pool_nu):
        block = anchor_nu + taken
        nu_by_size.setdefault(sum(block), []).append((block, rest, ways))
    num, den = 0, 1
    for sub_mu, rest_mu, ways_mu in _splits(pool_mu):
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
                if proper and j == s and not rest_mu and not rest_nu:
                    continue
                piece = connected(block_mu, block_nu, k, r, j)
                rest = piece and disconnected(rest_mu, rest_nu, k, r, s - j)
                if not rest:
                    continue
                d = piece.denominator * rest.denominator
                if den % d:
                    num, den = num * (d // math.gcd(den, d)), math.lcm(den, d)
                num += (ways_mu * ways_nu * math.comb(s, j) * piece.numerator
                        * rest.numerator * (den // d))
    return Q(num, den)


# the inversion meets each rest many times
_oracle_rest = lru_cache(maxsize=8192)(oracle_disconnected)


@lru_cache(maxsize=8192)
def _connected_fock(mu, nu, k, r, s):
    """connected_hurwitz by the Fock route, in the caller's orientation:
    the oracle's disconnected number, its kets grown from nu, less the
    proper blocks' terms, their connected numbers found the same way.
    One mu part with k >= 0, or one nu part with k <= 0, leaves no
    proper block able to balance."""
    if not mu and not nu:
        return Q(0)
    value = _oracle_rest(mu, nu, k, r, s)
    if (len(mu) == 1 and k >= 0) or (len(nu) == 1 and k <= 0):
        return value
    return value - _block_sum(mu, nu, k, r, s, _connected_fock,
                              _oracle_rest, proper=True)


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
    from .fock import disconnected_vev_series, hurwitz_sequence
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

    Records are newline-delimited JSON objects, in the bytes of
    json.dumps(record, sort_keys=True), with decimal-string numerator
    and denominator.  Lookups also try the swapped query (nu, mu, -k),
    which has the same value.  A line is skipped and counted in skipped
    when it does not decode to a full record (such as the tail of an
    append cut short), when its key fails check_query (a part that is
    not positive, r = 0), or when it is mistyped: mu or nu not a list,
    k, r, s or a part not a JSON integer (booleans index as 0 or 1),
    connected not a bool, num not an ASCII decimal string with an
    optional minus or den not a positive one (int() takes "1_000",
    " 12 " and non-ASCII digits).  A directory, or a path in a
    directory that does not exist, raises OSError here.  The file is
    opened for appending once, at the first store, so a cache that only
    serves lookups needs no write access and is not created.
    """

    def __init__(self, path=None):
        self._mem = {}
        self.skipped = 0
        self._path = path
        self._fh = None
        # a file cut mid-record gets its own line ended by the first
        # append, so that record is not glued onto the fragment
        self._sep = b""
        if not path:
            return
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise
            return
        with fh:
            for raw in fh:
                self._sep = b"" if raw.endswith(b"\n") else b"\n"
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    mu, nu, k, r, s, connected, num, den = (
                        rec["mu"], rec["nu"], rec["k"], rec["r"], rec["s"],
                        rec["connected"], rec["num"], rec["den"])
                    if not (set(map(type, (k, r, s, *mu, *nu))) == {int}
                            and type(mu) is type(nu) is list
                            and type(connected) is bool
                            and type(num) is type(den) is str
                            and num.isascii() and den.isascii()
                            and num.removeprefix("-").isdecimal()
                            and den.isdecimal()):
                        raise TypeError("mistyped cache record")
                    key = (*check_query(mu, nu, k, r, s), connected)
                    self._mem[key] = Q(int(num), int(den))
                except (ValueError, KeyError, TypeError, ZeroDivisionError):
                    self.skipped += 1

    def close(self):
        if self._fh is not None:
            self._fh.close()

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
            if self._fh is None:
                self._fh = open(self._path, "ab")
            # the bytes of json.dumps(record, sort_keys=True)
            conn = "true" if q.connected else "false"
            self._fh.write(self._sep + (
                f'{{"connected": {conn}, "den": "{value.denominator}", '
                f'"k": {q.k}, "mu": {list(q.mu)}, "nu": {list(q.nu)}, '
                f'"num": "{value.numerator}", "r": {q.r}, "s": {q.s}}}\n'
            ).encode())
            self._fh.flush()
            self._sep = b""


# cold, an oracle state costs about a fifth of an engine term; warm memos
# narrow that, and the offset keeps the smallest queries on the engine
_FOCK_SCALE = 4
_FOCK_OFFSET = 30


def _fock_cheaper(q):
    """Shape-only route rule: True when the oracle is clearly cheaper
    than the engine.

    The engine's estimate E is a series of about (r+2)^s terms per step
    of a sequence of m+n+s operators.  The oracle's F bounds the states
    it touches on the dual query: a charge-zero state of energy e is a
    partition of e, so F = p(|mu|) + sum_{j<s} p(|nu| + j k) + p(|nu|),
    the ket built from mu, the ket after each insertion and the bra
    built from nu; the oracle is taken when F + _FOCK_OFFSET <
    _FOCK_SCALE E, connected or not.  An unbalanced query, or one of
    half-integral genus, is zero, and the engine route returns that
    before building anything.
    """
    if _vanishes(*q[:5]):
        return False
    budget = (_FOCK_SCALE * (q.r + 2) ** q.s
              * (len(q.mu) + len(q.nu) + q.s) - _FOCK_OFFSET)
    b = sum(q.nu)
    sizes = [sum(q.mu), b] + [b + j * q.k for j in range(q.s)]
    # p(e) >= 2^(isqrt(e) - 1) (subsets of 2..isqrt(e), padded with
    # ones), so an energy this large is over budget without the recurrence
    return (math.isqrt(max(sizes)) <= budget.bit_length()
            and sum(map(partition_count, sizes)) < budget)


def evaluate(q, cache=None):
    """Evaluate a query, consulting and filling the cache if given.

    The method names the route: cache, fock (the oracle, where
    _fock_cheaper picks it) or engine.  Only here is a query flipped
    for the Fock route, to its dual of the same value, so a table's
    kets grow from its outer mu.
    """
    start = time.perf_counter()
    value = cache.lookup(q) if cache is not None else None
    method = "cache"
    if value is None:
        if _fock_cheaper(q):
            fock = _connected_fock if q.connected else oracle_disconnected
            value = fock(q.nu, q.mu, -q.k, q.r, q.s)
            method = "fock"
        else:
            route = connected_cached if q.connected else disconnected_hurwitz
            value = route(q.mu, q.nu, q.k, q.r, q.s)
            method = "engine"
        if cache is not None:
            cache.store(q, value)
    ms = (time.perf_counter() - start) * 1000.0
    return HurwitzResult(value, q, method, ms)
