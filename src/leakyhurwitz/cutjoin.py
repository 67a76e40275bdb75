"""Cut-and-join evolution of the disconnected generating series.

The generating series over sorted source profiles evolves in the
insertion count by a differential operator in the power-sum variables:
one application deletes a submultiset B of the profile and creates a
partition A with sum(A) = sum(B) + k.  The transition bracket is the
z^(r+1) coefficient of prod sigma(a z) prod sigma(b z) / sigma(z);
creation parts carry weight 1/(|Aut A| prod(A)) and deletions count
multiset selections.  verify_cut_and_join checks one evolution step
coefficient-by-coefficient against directly computed numbers.
"""
from __future__ import annotations

import math

from .series import (
    Q,
    invert_unit_series,
    sigma_series,
    unit_s_series,
)
from .numbers import (
    _submultisets,
    aut_factor,
    canonical_partition,
    disconnected_hurwitz,
    partitions_of,
)


def _bracket(A, B, r):
    """[z^(r+1)] (1/sigma(z)) prod sigma(a z) prod sigma(b z).

    Zero whenever r and |A|+|B| have different parities (the product is
    an even or odd series times z^(|A|+|B|-1)).
    """
    if not A and not B:
        raise ValueError("need at least one part in A or B")
    if (len(A) + len(B)) % 2 != r % 2:
        return Q(0)
    caps = (r + 2,)
    prod = invert_unit_series(unit_s_series((1,), caps))
    for a in A:
        prod = prod * sigma_series((a,), caps)
    for b in B:
        prod = prod * sigma_series((b,), caps)
    # dividing by sigma(z) = z*S(z) shifts the exponent up by one
    return prod.coefficient((r + 2,))


def q_weight(A, B, k, r):
    """Transition weight between profiles, normalized by both Aut orders."""
    A = canonical_partition(A)
    B = canonical_partition(B)
    if sum(A) != sum(B) + k:
        raise ValueError("weight needs sum(A) = sum(B) + k")
    return _bracket(A, B, r) / (aut_factor(A) * aut_factor(B))


def apply_Q(f, k, r):
    """One cut-and-join step on a power-sum polynomial.

    f maps profile tuples (descending) to rational coefficients; the
    empty tuple is the constant monomial.  For each profile, each
    deletable submultiset B and each created partition A of sum(B)+k
    contributes bracket(A,B) * (multiset deletion count) /
    (|Aut A| * prod(A)).
    """
    out = {}
    for prof, coeff in f.items():
        if coeff == 0:
            continue
        for B, ways in _submultisets(prof):
            target = sum(B) + k
            if target < 0:
                continue
            rest = list(prof)
            for b in B:
                rest.remove(b)
            for A in partitions_of(target):
                if not A and not B:
                    continue
                br = _bracket(A, B, r)
                if br == 0:
                    continue
                denom = aut_factor(A)
                for a in A:
                    denom *= a
                new_prof = tuple(sorted(rest + list(A), reverse=True))
                add = coeff * br * Q(ways, denom)
                prev = out.get(new_prof, Q(0)) + add
                if prev == 0:
                    out.pop(new_prof, None)
                else:
                    out[new_prof] = prev
    return out


def generating_slice(nu, k, r, t):
    """Coefficient dict of the disconnected series at t insertions:
    profile mu -> disconnected(mu, nu) / |Aut mu|, over all balanced mu
    (the empty profile included when its size is zero)."""
    nu = canonical_partition(nu)
    total = sum(nu) + t * k
    out = {}
    if total < 0:
        return out
    for mu in partitions_of(total):
        val = disconnected_hurwitz(mu, nu, k, r, t)
        if val != 0:
            out[mu] = val / aut_factor(mu)
    return out


def verify_cut_and_join(nu, k, r, s):
    """Check apply_Q(G_{s-1}) = G_s coefficient-by-coefficient.

    Returns a report dict with ok, the compared profile count, and the
    first mismatches (profile, expected, got).
    """
    if s < 1:
        raise ValueError("need s >= 1 to take an evolution step")
    before = generating_slice(nu, k, r, s - 1)
    after = generating_slice(nu, k, r, s)
    stepped = apply_Q(before, k, r)
    profiles = sorted(set(after) | set(stepped), reverse=True)
    mismatches = []
    for prof in profiles:
        want = after.get(prof, Q(0))
        got = stepped.get(prof, Q(0))
        if want != got:
            mismatches.append((prof, want, got))
    return {
        "nu": nu, "k": k, "r": r, "s": s,
        "ok": not mismatches,
        "profiles": len(profiles),
        "mismatches": mismatches[:10],
    }
