"""Vacuum expectations via the operator commutation tree.

Correlators of boson operators and loop-weighted insertion operators are
evaluated symbolically: the leftmost negative-energy operator is commuted
toward the left end, where it annihilates the covacuum.  Each commutation
step branches into a swap and a merge; a merge multiplies the running
series by an edge weight sigma(a z_B - b z_A) and fuses the two labels.
A pair of energies a + b = 0 also leaves a central term: a for two
bosons, sigma(a z_K)/sigma(z_K) otherwise, with z_K the sum of the
pair's z-variables.  One recursion serves both kinds of correlator.
The full expectation keeps every central term, times the expectation of
the sequence without the pair (the empty sequence gives 1).  A central
term splits off a connected component, so the connected expectation
keeps it only when the pair is the whole sequence.  The recursion is
memoized globally on (sequence, caps, connected) with the z-variables
renamed in order of first appearance, so all labellings share one entry.

Operator labels are (energy, zvars, corrected) triples: bosons alpha_n
carry no z-variables; an insertion in variable i carries zvars={i}.
Zero-energy labels must be the corrected variant (vacuum expectation
zero); the uncorrected zero-energy operator has a Laurent tail 1/sigma(z)
that a truncated power series cannot hold.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

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
    corrected: bool = False


def canonical_partition(parts):
    """Parts as a descending tuple of ints; a nonpositive part raises
    ValueError and a non-integer part, such as 2.5, TypeError."""
    parts = sorted(map(operator.index, parts), reverse=True)
    if parts and parts[-1] <= 0:
        raise ValueError("partition parts must be positive")
    return tuple(parts)


def check_query(mu, nu, k, r, s):
    """The engine's one input check.  Returns (mu, nu, k, r, s) with both
    partitions canonical; a non-integer k, r or s raises TypeError, and
    an r below 1 or a negative s ValueError."""
    mu, nu = canonical_partition(mu), canonical_partition(nu)
    k, r, s = operator.index(k), operator.index(r), operator.index(s)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    return mu, nu, k, r, s


def alpha_op(n):
    if n == 0:
        raise ValueError("alpha_0 is central; it does not belong in sequences")
    return EOp(operator.index(n), frozenset(), False)


def insertion_op(energy, var, corrected=None):
    """Insertion operator of the given energy in z-variable index var."""
    if corrected is None:
        corrected = energy == 0
    if energy == 0 and not corrected:
        raise ValueError("uncorrected zero-energy insertion is not a power series")
    return EOp(operator.index(energy), frozenset((var,)), corrected)


# A dict, not lru_cache, so _vev's early exits are not stored.  The
# benchmark's sweep pass leaves 17,998 entries (30,638 keyed by name).
_MEMO = {}
_zero = lru_cache(maxsize=256)(TruncSeries.zero)


def clear_memo():
    _MEMO.clear()


def _edge_form(a, avars, b, bvars, nvars):
    """Coefficient tuple of the linear form a*z_B - b*z_A."""
    form = [0] * nvars
    for i in bvars:
        form[i] = a
    for i in avars:
        form[i] = -b
    return tuple(form)


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
        return TruncSeries.const(caps, Q(1))
    p = next((i for i, op in enumerate(seq) if op.energy < 0), None)
    if p is None or p == 0:
        # no annihilator left (rightmost label kills the vacuum), or the
        # leftmost one hit the covacuum
        return _zero(caps)
    # canonical labels: first-appearance order, then the absent variables
    order = [v for op in seq for v in sorted(op.zvars)]
    order += [v for v in range(len(caps)) if v not in order]
    if order != sorted(order):
        new = {v: i for i, v in enumerate(order)}
        canon = tuple(op._replace(zvars=frozenset(map(new.get, op.zvars)))
                      for op in seq)
        canon_caps = tuple(caps[v] for v in order)
        _MEMO[key] = total = _vev(canon, canon_caps, connected).relabel(order)
        return total
    a_op, b_op = seq[p - 1], seq[p]
    a, b = a_op.energy, b_op.energy
    swapped = seq[:p - 1] + (b_op, a_op) + seq[p + 1:]
    total = _vev(swapped, caps, connected)
    if a + b == 0 and (len(seq) == 2 or not connected):
        if not a_op.zvars and not b_op.zvars:
            central = TruncSeries.const(caps, Q(a))
        else:
            # edge weight times the central expectation sigma(a z_K)/sigma(z_K)
            central = sigma_over_sigma(a, 1, a_op.zvars | b_op.zvars, caps)
        if len(seq) == 2:
            total = total + central
        else:
            total = total + central * _vev(
                seq[:p - 1] + seq[p + 1:], caps, False)
    if (a_op.zvars or b_op.zvars) and len(seq) > 2:
        # boson-boson merges are purely central; a merge into a single
        # label leaves an expectation of zero
        edge = sigma_series(
            _edge_form(a, a_op.zvars, b, b_op.zvars, len(caps)), caps)
        if not edge.is_zero():
            merged = EOp(a + b, a_op.zvars | b_op.zvars, True)
            rest = seq[:p - 1] + (merged,) + seq[p + 1:]
            total = total + edge * _vev(rest, caps, connected)
    _MEMO[key] = total
    return total


def _expectation(ops, caps, connected):
    """The label checks both public entry points share, then _vev."""
    caps = tuple(caps)
    seq = tuple(ops)
    for op in seq:
        if op.energy == 0 and not op.corrected:
            raise ValueError("zero-energy labels must be corrected")
        if any(v < 0 or v >= len(caps) for v in op.zvars):
            raise ValueError("zvars index outside caps range")
    if sum(op.energy for op in seq) != 0:
        return TruncSeries.zero(caps)
    return _vev(seq, caps, connected)


def connected_vev_series(ops, caps):
    """Connected vacuum expectation of a sequence of EOp labels.

    Returns a TruncSeries in the z-variables 0..len(caps)-1.  Every
    zvars index must lie below len(caps) and zero-energy labels must be
    corrected.
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


def connected_hurwitz(mu, nu, k, r, s, caps=None):
    """Connected k-leaky double Hurwitz number with (r+1)-cycle insertions.

    Extracts the coefficient of prod z_i^(r+1) from the connected
    correlator and divides by prod(mu) * prod(nu).  caps overrides the
    truncation degree of each z_i (default r+1); the value is the same
    for any caps of length s with every cap at least r+1.
    """
    mu, nu, k, r, s = check_query(mu, nu, k, r, s)
    caps = (r + 1,) * s if caps is None else tuple(caps)
    if len(caps) != s or any(c < r + 1 for c in caps):
        raise ValueError("need one cap >= r+1 per insertion")
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
    series = connected_vev_series(ops, caps)
    return series.coefficient((r + 1,) * s) / math.prod(mu + nu)


def _render_op(op):
    if not op.zvars:
        return f"a{op.energy}"
    vals = ",".join(f"z{i + 1}" for i in sorted(op.zvars))
    tilde = "~" if op.corrected and op.energy == 0 else ""
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
            merged = EOp(a + b, a_op.zvars | b_op.zvars, True)
            rest = seq[:p - 1] + (merged,) + seq[p + 1:]
            mid = walk(rest)
            lines.append(f'  {nid} -> {mid} [label="merge"];')
        return nid

    walk(tuple(ops))
    if truncated[0]:
        lines.append('  cut [label="expansion truncated", shape=plaintext];')
    lines.append("}")
    return "\n".join(lines)
