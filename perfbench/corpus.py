"""Inputs of the three workloads and the reference values their checks use.

Nothing here imports leakyhurwitz: the reference values are computed
apart from the program, so a wrong number from the library cannot make
its own check pass.
"""
from fractions import Fraction
from math import factorial
import random

# -- cold-ladder ----------------------------------------------------------

# (mu, nu, k, r, s, connected).  The one-part genus-zero rungs
# (2n-1)/(1^n), k=1, r=1, s=n-1 for n = 3..7 form part a; the multi-part
# rungs form part b.  Left out, as too long for one sample of a 40 s
# run: the n=8 rung and (8,6,4)/(6,5,3) at r=2, s=4 (see README.md).
ONE_PART_RUNGS = tuple(((2 * n - 1,), (1,) * n, 1, 1, n - 1, True)
                       for n in range(3, 8))
MULTI_PART_RUNGS = (
    ((8, 6, 4), (6, 5, 3), 1, 1, 4, False),
    ((8, 6, 4), (6, 5, 4), 1, 2, 3, False),
    ((6, 4, 2), (5, 3, 2), 1, 2, 2, False),
    ((9, 3), (6, 2), 2, 1, 2, True),
)
RUNGS = ONE_PART_RUNGS + MULTI_PART_RUNGS


def one_part_product(n):
    """(n-1)!/2^(n-2) * prod_{p=1}^{n-2} (2d - p) with d = 2n - 1.

    The genus-zero k=1 value of h((d), (1^n)); 9 at n=3 and 234 at n=4.
    """
    d = 2 * n - 1
    value = Fraction(factorial(n - 1), 2 ** (n - 2))
    for p in range(1, n - 1):
        value *= 2 * d - p
    return value


# -- verify-sweep ---------------------------------------------------------

# Part a: criterion 3's sweep scaled down from |mu| <= 8 to |mu| <= 3.
SWEEP_MAX_SIZE = 3
SWEEP_MAX_S = 3
SWEEP_KS = tuple(range(-3, 4))
SWEEP_RS = (1, 2)


def partitions(total, max_part=None):
    """Partitions of total as descending tuples; partitions(0) = [()]."""
    if total == 0:
        return [()]
    cap = total if max_part is None else min(max_part, total)
    return [(first,) + rest
            for first in range(cap, 0, -1)
            for rest in partitions(total - first, first)]


def sweep_queries(max_size=SWEEP_MAX_SIZE, max_s=SWEEP_MAX_S):
    """Every balanced (mu, nu, k, r, s) of the sweep box, in a fixed order."""
    out = []
    for a in range(max_size + 1):
        for s in range(max_s + 1):
            for k in SWEEP_KS:
                b = a - s * k
                if b < 0:
                    continue
                for r in SWEEP_RS:
                    out.extend((mu, nu, k, r, s) for nu in partitions(b)
                               for mu in partitions(a))
    return out


def partition_count(n):
    """p(n) by the coin-counting recurrence, not by listing partitions."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def sweep_count(max_size=SWEEP_MAX_SIZE, max_s=SWEEP_MAX_S):
    """Number of balanced tuples in the sweep box: sum of p(a) p(a - sk)."""
    return sum(partition_count(a) * partition_count(a - s * k) * len(SWEEP_RS)
               for a in range(max_size + 1) for s in range(max_s + 1)
               for k in SWEEP_KS if a - s * k >= 0)


# Part b: the inputs of criteria 5-7.
CHAMBER_BASES = (  # (r, s, mu, nu, k)
    (1, 2, (9, 3), (6, 2), 2),
    (2, 2, (5,), (1,), 2),
    (1, 3, (8, 3), (5,), 2),
    (2, 1, (6,), (3, 2), 1),
    (2, 2, (9, 3), (6, 2), 2),
)

# (I, J, t, m, n, s, extra points); 0-based positions, r = 1.  The first
# wall is also checked at a k=1 point, where no adjacent lattice pair
# exists but the jump identity still holds.
WALLS = (
    ((0,), (0,), 1, 2, 2, 2, (((9, 3), (5, 5), 1),)),
    ((1,), (1,), 1, 2, 2, 2, ()),
    ((0,), (0, 1), 2, 2, 3, 3, ()),
)

# The adjacent-pair search is set-up, and its cost ranges from tens to
# tens of thousands of tries over seeds; a fixed seed (criterion 6's)
# keeps set-up time independent of the workload seed.
PAIR_SEARCH_SEED = 61

CUTJOIN_STEPS = tuple((nu, k, r, s)
                      for total in range(6) for nu in partitions(total)
                      for k in (-1, 0, 1, 2) for r in (1, 2) for s in (1, 2))

# -- table-cache ----------------------------------------------------------

TABLE_BOX = {"max_part": 5, "max_len": 4, "k_min": -3, "k_max": 3,
             "s": 3, "r": 1}
TABLE_ORACLE_SAMPLE = 50
TABLE_REPLAYS = 4   # replay passes per round, each from the cold pass's file


def table_argv(cache_path, box=None):
    box = TABLE_BOX if box is None else box
    return ["table", "--max-part", str(box["max_part"]),
            "--max-len", str(box["max_len"]),
            "--k-min", str(box["k_min"]), "--k-max", str(box["k_max"]),
            "--s", str(box["s"]), "--r", str(box["r"]),
            "--format", "json", "--cache", cache_path]


def table_queries(box=None):
    """Sorted (mu, nu, k) of every balanced query in the table box."""
    box = TABLE_BOX if box is None else box
    profiles = [p for total in range(box["max_part"] * box["max_len"] + 1)
                for p in partitions(total, box["max_part"])
                if len(p) <= box["max_len"]]
    return sorted((mu, nu, k) for mu in profiles for nu in profiles
                  for k in range(box["k_min"], box["k_max"] + 1)
                  if sum(mu) == sum(nu) + box["s"] * k)


def round_rng(seed, round_no, part):
    """The random source of one round's part, fixed by the workload seed."""
    return random.Random(f"{seed}:{round_no}:{part}")
