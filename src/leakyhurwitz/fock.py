"""Connected vacuum expectations via the operator commutation tree.

Correlators of boson operators and loop-weighted insertion operators are
evaluated symbolically: the leftmost negative-energy operator is commuted
toward the left end, where it annihilates the covacuum.  Each commutation
step branches into a swap and a merge; a merge multiplies the running
series by an edge weight sigma(a z_B - b z_A) and fuses the two labels.
Central contributions split off a connected component, so for connected
correlators they are kept only when the final merge consumes the whole
sequence.  The recursion is memoized globally on (sequence, caps).

Operator labels are (energy, zvars, corrected) triples: bosons alpha_n
carry no z-variables; an insertion in variable i carries zvars={i}.
Zero-energy labels must be the corrected variant (vacuum expectation
zero); the uncorrected zero-energy operator has a Laurent tail 1/sigma(z)
that a truncated power series cannot hold.
"""
from __future__ import annotations

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
    """Parts as a descending tuple of ints; nonpositive parts raise."""
    parts = tuple(sorted((int(p) for p in parts), reverse=True))
    if any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    return parts


def alpha_op(n):
    if n == 0:
        raise ValueError("alpha_0 is central; it does not belong in sequences")
    return EOp(int(n), frozenset(), False)


def insertion_op(energy, var, corrected=None):
    """Insertion operator of the given energy in z-variable index var."""
    if corrected is None:
        corrected = energy == 0
    if energy == 0 and not corrected:
        raise ValueError("uncorrected zero-energy insertion is not a power series")
    return EOp(int(energy), frozenset((var,)), corrected)


_MEMO = {}


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


def _vev(seq, caps):
    zero = TruncSeries.zero(caps)
    if len(seq) - 2 > sum(caps):
        # every surviving history carries one edge weight per non-final
        # merge, so the series starts in total degree len(seq) - 2
        return zero
    p = None
    for i, op in enumerate(seq):
        if op.energy < 0:
            p = i
            break
    if p is None or p == 0:
        # no annihilator left (rightmost label kills the vacuum), or the
        # leftmost one hit the covacuum
        return zero
    key = (seq, caps)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    a_op, b_op = seq[p - 1], seq[p]
    a, b = a_op.energy, b_op.energy
    swapped = seq[:p - 1] + (b_op, a_op) + seq[p + 1:]
    total = _vev(swapped, caps)
    if not a_op.zvars and not b_op.zvars:
        # boson-boson merge is purely central
        if a + b == 0 and len(seq) == 2:
            total = total + TruncSeries.const(caps, Q(a))
    elif len(seq) == 2:
        # final merge: edge weight times the central expectation
        # sigma(a z_K)/sigma(z_K); nonzero energy has expectation zero
        if a + b == 0:
            total = total + sigma_over_sigma(
                a, 1, a_op.zvars | b_op.zvars, caps)
    else:
        edge = sigma_series(
            _edge_form(a, a_op.zvars, b, b_op.zvars, len(caps)), caps)
        if not edge.is_zero():
            merged = EOp(a + b, a_op.zvars | b_op.zvars, True)
            rest = seq[:p - 1] + (merged,) + seq[p + 1:]
            total = total + edge * _vev(rest, caps)
    _MEMO[key] = total
    return total


def connected_vev_series(ops, caps):
    """Connected vacuum expectation of a sequence of EOp labels.

    Returns a TruncSeries in the z-variables 0..len(caps)-1.  Every
    zvars index must lie below len(caps) and zero-energy labels must be
    corrected.
    """
    caps = tuple(caps)
    seq = tuple(ops)
    for op in seq:
        if op.energy == 0 and not op.corrected:
            raise ValueError("zero-energy labels must be corrected")
        if any(v < 0 or v >= len(caps) for v in op.zvars):
            raise ValueError("zvars index outside caps range")
    if not seq:
        raise ValueError("empty operator sequence")
    if len(seq) == 1:
        return TruncSeries.zero(caps)
    if sum(op.energy for op in seq) != 0:
        return TruncSeries.zero(caps)
    return _vev(seq, caps)


def disconnected_vev_series(ops, caps):
    """Disconnected vacuum expectation: sum over set partitions of the
    labeled operators, each block contributing its connected expectation
    on the subsequence in original order.

    The empty sequence has expectation 1.
    """
    caps = tuple(caps)
    seq = tuple(ops)
    memo = {}

    def rec(indices):
        if not indices:
            return TruncSeries.const(caps, Q(1))
        hit = memo.get(indices)
        if hit is not None:
            return hit
        rest = sorted(indices)
        anchor, others = rest[0], rest[1:]
        total = TruncSeries.zero(caps)
        # the block containing the anchor ranges over subsets of the rest
        for mask in range(1 << len(others)):
            block = [anchor]
            for j, idx in enumerate(others):
                if mask >> j & 1:
                    block.append(idx)
            part = connected_vev_series([seq[i] for i in sorted(block)], caps)
            if part.is_zero():
                continue
            total = total + part * rec(indices - frozenset(block))
        memo[indices] = total
        return total

    return rec(frozenset(range(len(seq))))


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
    mu = canonical_partition(mu)
    nu = canonical_partition(nu)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
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
    val = series.coefficient((r + 1,) * s)
    denom = Q(1)
    for p in mu + nu:
        denom *= p
    return val / denom


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
