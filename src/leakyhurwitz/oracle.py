"""Brute-force correlator evaluation in the charge-zero fermion Fock space.

This module is an independent cross-check for the commutation engine and
deliberately shares no code with it.  States of the semi-infinite wedge
are stored as deviations from the vacuum: the set of occupied
half-integer slots above zero (particles) and the set of vacated slots
below zero (holes).  Slots are kept as doubled integers, so slot w is
stored as the odd integer 2w; this keeps all bookkeeping in int.

Operators act by explicit fermion moves E_{i,j} (move a fermion from
slot j to slot i) with wedge signs obtained by counting occupied slots
between source and target.  Linear combinations of basis states are
plain dicts mapping states to exact rationals.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial

from .series import Q, QZERO

VACUUM = (frozenset(), frozenset())


class OracleWindowError(RuntimeError):
    """A fermion move landed outside the configured slot window."""


def _occupied(state, dx):
    particles, holes = state
    return dx in particles if dx > 0 else dx not in holes


def _odds_in(a, b):
    """Number of odd integers in the closed interval [a, b]."""
    if a > b:
        return 0
    return (b + 1) // 2 - a // 2


def _occupied_between(state, lo, hi):
    """Occupied slots strictly between doubled slots lo < hi."""
    particles, holes = state
    n = _odds_in(lo + 1, min(hi - 1, -1))  # vacuum-occupied negatives
    for h in holes:
        if lo < h < hi:
            n -= 1
    for p in particles:
        if lo < p < hi:
            n += 1
    return n


def apply_E(state, di, dj):
    """E_{i,j} on a basis state, slots given doubled.

    Returns (state', sign) moving a fermion from slot j to slot i, or
    None when the move annihilates the state.  For i == j this is the
    normally ordered diagonal action: +1 on an occupied positive slot,
    -1 on an empty negative slot, 0 otherwise (so the vacuum is killed).
    """
    if di % 2 == 0 or dj % 2 == 0:
        raise ValueError("slots must be half-integers (doubled odd ints)")
    if di == dj:
        if dj > 0:
            return (state, 1) if dj in state[0] else None
        return (state, -1) if dj in state[1] else None
    if not _occupied(state, dj) or _occupied(state, di):
        return None
    particles, holes = state
    if dj > 0:
        particles = particles - {dj}
    else:
        holes = holes | {dj}
    if di > 0:
        particles = particles | {di}
    else:
        holes = holes - {di}
    sign = -1 if _occupied_between(state, min(di, dj), max(di, dj)) % 2 else 1
    return (particles, holes), sign


def _move_candidates(state, delta):
    """Source slots whose move by delta (doubled) can act nontrivially."""
    particles, holes = state
    cand = set(particles)
    for h in holes:
        cand.add(h - delta)
    if delta > 0:
        # vacuum-occupied negatives that land above zero
        cand.update(range(-delta + 1, 0, 2))
    return cand


def _apply_moves(comb, delta, coeff_of, dwindow):
    """Sum over source slots of coeff_of(dw) * E_{dw+delta, dw}."""
    out = {}
    for state, amp in comb.items():
        if delta == 0:
            val = QZERO
            for p in state[0]:
                val += coeff_of(p)
            for h in state[1]:
                val -= coeff_of(h)
            if val != 0:
                v = out.get(state)
                v = amp * val if v is None else v + amp * val
                if v == 0:
                    out.pop(state, None)
                else:
                    out[state] = v
            continue
        for dw in _move_candidates(state, delta):
            dt = dw + delta
            if not _occupied(state, dw) or _occupied(state, dt):
                continue
            if abs(dt) > dwindow or abs(dw) > dwindow:
                raise OracleWindowError(
                    f"slot {dt}/2 outside window +-{dwindow}/2")
            c = coeff_of(dw)
            if c == 0:
                continue
            nstate, sign = apply_E(state, dt, dw)
            v = out.get(nstate)
            add = amp * c * sign
            v = add if v is None else v + add
            if v == 0:
                out.pop(nstate, None)
            else:
                out[nstate] = v
    return out


def apply_alpha(comb, n, window):
    """alpha_n = sum_w E_{w-n, w} on a combination of states."""
    if n == 0:
        raise ValueError("alpha_0 is the charge operator; not used here")
    one = Q(1)
    return _apply_moves(comb, -2 * n, lambda dw: one, 2 * window)


def apply_insertion_coeff(comb, k, j, window):
    """[z^j] of the energy -k insertion operator on a combination.

    For k != 0 this is sum_w (w + k/2)^j / j! * E_{w+k, w}; for k = 0 the
    tilde variant sum_w w^j / j! * E_{w,w} (no central correction).
    """
    jf = Q(factorial(j))
    if k == 0:
        def coeff_of(dw, jf=jf, j=j):
            return Q(dw, 2) ** j / jf
    else:
        def coeff_of(dw, jf=jf, j=j, k=k):
            return Q(dw + k, 2) ** j / jf
    return _apply_moves(comb, 2 * k, coeff_of, 2 * window)


def default_window(mu, nu, k, r, s):
    """Slot window comfortably containing every reachable deviation."""
    return max(sum(mu), sum(nu), 1) + s * (abs(k) + r + 2) + 2


@lru_cache(maxsize=64)
def _alpha_built_state(parts):
    """Product of alpha_{-p} over parts, applied to the vacuum (cached).

    No fermion moves further than sum(parts) - 1/2 from zero, so a
    window of sum(parts) always holds the state.
    """
    comb = {VACUUM: Q(1)}
    for p in parts:
        comb = apply_alpha(comb, -p, sum(parts))
    return comb


@lru_cache(maxsize=8)
def _ket_state(nu, k, r, s, window):
    """Insertions^s alpha_{-nu} |vacuum>, cached per (nu, k, r, s)."""
    comb = _alpha_built_state(nu)
    for _ in range(s):
        comb = apply_insertion_coeff(comb, k, r + 1, window)
    return comb


def oracle_disconnected(mu, nu, k, r, s, literal=False):
    """Disconnected leaky Hurwitz number by direct Fock-space evaluation.

    Applies, right to left on the vacuum: alpha_{-nu_j}, then s copies of
    the [z^(r+1)] insertion coefficient, then reads off the cap against
    the alpha-built bra; divides by prod(mu) * prod(nu).  The bra pairing
    equals literally applying alpha_{mu_i} and reading the vacuum
    coefficient (alpha_n and alpha_{-n} are mutually adjoint fermion
    moves); literal=True runs that slower route instead, kept as an
    internal cross-check.
    """
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    if any(p <= 0 for p in mu + nu):
        raise ValueError("partition parts must be positive")
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    if sum(mu) != sum(nu) + s * k:
        return QZERO
    window = default_window(mu, nu, k, r, s)
    ket = _ket_state(nu, k, r, s, window)
    denom = Q(1)
    for p in mu + nu:
        denom *= p
    if literal:
        comb = ket
        for p in mu:
            comb = apply_alpha(comb, p, window)
        return comb.get(VACUUM, QZERO) / denom
    bra = _alpha_built_state(mu)
    small, big = (bra, ket) if len(bra) <= len(ket) else (ket, bra)
    val = QZERO
    for state, amp in small.items():
        other = big.get(state)
        if other is not None:
            val += amp * other
    return val / denom
