"""Vacuum expectations via the operator commutation tree.

Correlators of boson operators and loop-weighted insertion operators are
evaluated symbolically: the leftmost negative-energy operator is commuted
toward the left end, where it annihilates the covacuum.  Each commutation
step branches into a swap and a merge; a merge multiplies the running
series by an edge weight sigma(a z_B - b z_A) and fuses the two labels.
A swap that leaves a prefix of negative energy (of zero energy, in a
connected correlator) starts a branch that is zero, so it is cut there.
A pair of energies a + b = 0 also leaves a central term: a for two
bosons, sigma(a z_K)/sigma(z_K) otherwise, with z_K the sum of the
pair's z-variables.  One recursion serves both kinds of correlator.
The full expectation keeps every central term, times the expectation of
the sequence without the pair (the empty sequence gives 1).  A central
term splits off a connected component, so the connected expectation
keeps it only when the pair is the whole sequence.  The recursion is
memoized globally on (sequence, caps, connected) with the z-variables
renamed in order of first appearance, so all labellings share one entry.
Inside it a label is an (energy, zmask) pair of ints, bit i of zmask
standing for z_i: the public labels below are converted once, on entry,
so a memo key holds no sets.  The central terms are memoized on
(a, zmask, caps), so each sigma quotient is built once.

Operator labels are (energy, zvars) pairs: bosons alpha_n carry no
z-variables; an insertion in variable i carries zvars={i}.  A
zero-energy label is the corrected operator (vacuum expectation zero,
no 1/sigma(z) tail); away from zero the corrected and plain operators
are equal.  alpha_0 is central, so a zero-energy label needs a z-variable.
Queries pass numbers.check_query, the library's one input check.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

from .numbers import check_query
from .series import (
    Q,
    TruncSeries,
    sigma_over_sigma,
    sigma_series,
)


class EOp(NamedTuple):
    """One operator in a correlator sequence."""
    energy: int
    zvars: frozenset


def alpha_op(n):
    if n == 0:
        raise ValueError("alpha_0 is central; it does not belong in sequences")
    return EOp(operator.index(n), frozenset())


def insertion_op(energy, var):
    """Insertion operator of the given energy in z-variable index var;
    at energy zero it is the corrected operator."""
    return EOp(operator.index(energy), frozenset((var,)))


# A dict, not lru_cache, so _vev's early exits are not stored.  Keys are
# (seq, caps, connected) with seq a tuple of (energy, zmask) int pairs in
# canonical labels.  The benchmark's sweep pass leaves 7,862 entries.
_MEMO = {}
_zero = lru_cache(maxsize=256)(TruncSeries.zero)


@lru_cache(maxsize=256)
def _bits(zmask):
    """The z-variable indices set in a mask, ascending."""
    return tuple(i for i in range(zmask.bit_length()) if zmask >> i & 1)


@lru_cache(maxsize=1024)
def _central(a, zmask, caps):
    """Central term of a pair of energies a and -a over the z-variables
    in zmask: the constant a for two bosons (zmask 0), otherwise
    sigma(a z_K)/sigma(z_K)."""
    if not zmask:
        return TruncSeries.const(caps, a)
    return sigma_over_sigma(a, 1, _bits(zmask), caps)


@lru_cache(maxsize=1024)
def _edge_form(a, am, b, bm, n):
    """The form a z_B - b z_A of a merge, as n int coefficients."""
    return tuple(-b if am >> i & 1 else a if bm >> i & 1 else 0
                 for i in range(n))


def _vev(seq, caps, connected):
    key = (seq, caps, connected)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    if connected and len(seq) - 2 > sum(caps):
        # every surviving history carries one edge weight per non-final
        # merge, so the series starts in total degree len(seq) - 2
        return _zero(caps)
    if not seq:
        return _central(1, 0, caps)  # the constant 1
    if seq[0][0] < 0:
        return _zero(caps)  # the leftmost annihilator hit the covacuum
    # one pass finds the leftmost annihilator p and the energy head up to
    # it, and checks the canonical labels: first-appearance order, then
    # the absent ones, so every prefix must cover z_0..z_j for some j
    p = seen = head = 0
    for i, (e, m) in enumerate(seq):
        if not p:
            head += e
            if e < 0:
                p = i
        seen |= m
        if seen & (seen + 1):
            return _relabelled(seq, caps, connected)
    if not p:
        return _zero(caps)  # no annihilator: the last label kills the vacuum
    (a, am), (b, bm) = seq[p - 1], seq[p]
    # a prefix of negative energy (of zero energy, if connected) keeps
    # its sum under every swap, merge and central removal until the
    # annihilator reaches the covacuum, so the swap that makes one is dead
    head -= a
    if head < 0 or (head == 0 and connected):
        total = _zero(caps)
    else:
        swapped = seq[:p - 1] + (seq[p], seq[p - 1]) + seq[p + 1:]
        total = _vev(swapped, caps, connected)
    if a + b == 0 and (len(seq) == 2 or not connected):
        # edge weight times the central expectation sigma(a z_K)/sigma(z_K)
        central = _central(a, am | bm, caps)
        if len(seq) > 2:
            central = central * _vev(seq[:p - 1] + seq[p + 1:], caps, False)
        total = total + central
    if (am or bm) and len(seq) > 2:
        # boson-boson merges are purely central; a merge into a single
        # label leaves an expectation of zero.  The edge weight is
        # sigma(a z_B - b z_A).
        edge = sigma_series(_edge_form(a, am, b, bm, len(caps)), caps)
        if not edge.is_zero():
            rest = seq[:p - 1] + ((a + b, am | bm),) + seq[p + 1:]
            total = total + edge * _vev(rest, caps, connected)
    _MEMO[key] = total
    return total


def _relabelled(seq, caps, connected):
    """_vev of a sequence through its canonical labels."""
    order = []
    for _, m in seq:
        order += [v for v in _bits(m) if v not in order]
    order += [v for v in range(len(caps)) if v not in order]
    new = {v: i for i, v in enumerate(order)}
    canon = tuple((e, sum(1 << new[v] for v in _bits(m))) for e, m in seq)
    canon_caps = tuple(caps[v] for v in order)
    return _vev(canon, canon_caps, connected).relabel(order)


def _expectation(ops, caps, connected):
    """The label checks both public entry points share, then _vev on the
    labels as (energy, zmask) pairs, bit i of zmask standing for z_i."""
    caps = tuple(caps)
    seq = tuple(ops)
    for op in seq:
        if op.energy == 0 and not op.zvars:
            raise ValueError("a zero-energy label needs a z-variable")
        if any(v < 0 or v >= len(caps) for v in op.zvars):
            raise ValueError("zvars index outside caps range")
    if sum(op.energy for op in seq) != 0:
        return TruncSeries.zero(caps)
    return _vev(tuple((op.energy, sum(1 << v for v in op.zvars))
                      for op in seq), caps, connected)


def connected_vev_series(ops, caps):
    """Connected vacuum expectation of a sequence of EOp labels.

    Returns a TruncSeries in the z-variables 0..len(caps)-1.  Every
    zvars index must lie below len(caps), and a zero-energy label, which
    stands for the corrected insertion, needs a z-variable.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("empty operator sequence")
    return _expectation(ops, caps, True)


def disconnected_vev_series(ops, caps):
    """Full (disconnected) vacuum expectation of a sequence of EOp labels.

    Same labels and caps as connected_vev_series; the empty sequence
    has expectation 1.
    """
    return _expectation(ops, caps, False)


def hurwitz_sequence(mu, nu, k, s):
    """Operator sequence for the (mu, nu) correlator with s insertions."""
    ops = [alpha_op(p) for p in mu]
    ops += [insertion_op(-k, i) for i in range(s)]
    ops += [alpha_op(-p) for p in nu]
    return tuple(ops)


def connected_hurwitz(mu, nu, k, r, s):
    """Connected k-leaky double Hurwitz number with (r+1)-cycle insertions.

    Extracts the coefficient of prod z_i^(r+1) from the connected
    correlator, truncated at degree r+1 in each z_i, and divides by
    prod(mu) * prod(nu).
    """
    mu, nu, k, r, s = check_query(mu, nu, k, r, s)
    if sum(mu) != sum(nu) + s * k:
        return Q(0)
    # each of the len-2 merges contributes an odd-degree sigma edge, so
    # the series starts in total degree len-2 and moves in steps of 2;
    # the extraction sits at total degree s*(r+1)
    low = len(mu) + len(nu) + s - 2
    if low > s * (r + 1) or (s * (r + 1) - low) % 2 != 0:
        return Q(0)
    ops = hurwitz_sequence(mu, nu, k, s)
    if not ops:
        return Q(0)
    series = connected_vev_series(ops, (r + 1,) * s)
    return series.coefficient((r + 1,) * s) / math.prod(mu + nu)


def _render_op(op):
    if not op.zvars:
        return f"a{op.energy}"
    vals = ",".join(f"z{i + 1}" for i in sorted(op.zvars))
    tilde = "~" if op.energy == 0 else ""
    return f"E{tilde}{op.energy}({vals})"


def _render_seq(seq):
    return " ".join(_render_op(op) for op in seq)


def commutation_tree_dot(ops, caps, max_nodes=400):
    """DOT digraph of the commutation recursion for a sequence.

    Nodes are operator sequences; edges are labeled swap or merge.
    Leaves annotate how the branch ends.  Expansion stops after
    max_nodes nodes and marks the cut with an ellipsis node.
    """
    caps = tuple(caps)
    lines = [
        "digraph commutation {",
        '  node [shape=box, fontname="monospace"];',
    ]
    counter = [0]
    truncated = [False]

    def node(seq, note=None):
        nid = f"n{counter[0]}"
        counter[0] += 1
        label = _render_seq(seq) if seq else "1"
        if note:
            label += f"\\n{note}"
        lines.append(f'  {nid} [label="{label}"];')
        return nid

    def walk(seq):
        if counter[0] >= max_nodes:
            truncated[0] = True
            return node((), note="...")
        if len(seq) - 2 > sum(caps):
            return node(seq, note="degree prune: 0")
        p = None
        for i, op in enumerate(seq):
            if op.energy < 0:
                p = i
                break
        if p is None:
            return node(seq, note="kills vacuum: 0")
        if p == 0:
            return node(seq, note="kills covacuum: 0")
        a_op, b_op = seq[p - 1], seq[p]
        a, b = a_op.energy, b_op.energy
        nid = node(seq)
        swapped = seq[:p - 1] + (b_op, a_op) + seq[p + 1:]
        sid = walk(swapped)
        lines.append(f'  {nid} -> {sid} [label="swap"];')
        if not a_op.zvars and not b_op.zvars:
            if a + b == 0 and len(seq) == 2:
                mid = node((), note=f"scalar {a}")
                lines.append(f'  {nid} -> {mid} [label="contract"];')
        elif len(seq) == 2:
            if a + b == 0:
                mid = node((), note=f"fold s({a}zK)/s(zK)")
                lines.append(f'  {nid} -> {mid} [label="merge"];')
        else:
            merged = EOp(a + b, a_op.zvars | b_op.zvars)
            rest = seq[:p - 1] + (merged,) + seq[p + 1:]
            mid = walk(rest)
            lines.append(f'  {nid} -> {mid} [label="merge"];')
        return nid

    walk(tuple(ops))
    if truncated[0]:
        lines.append('  cut [label="expansion truncated", shape=plaintext];')
    lines.append("}")
    return "\n".join(lines)
