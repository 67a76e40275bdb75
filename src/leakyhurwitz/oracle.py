"""Brute-force correlator evaluation in the charge-zero fermion Fock space.

This module is an independent cross-check for the commutation engine and
deliberately shares no code with it.  A state of the semi-infinite wedge
is stored as its deviation from the vacuum, in two int bitmasks: bit t of
the particle mask is set when slot t + 1/2 is occupied, and bit t of the
hole mask when slot -(t + 1/2) is empty.  Slots passed in or out are
doubled, so slot w is the odd integer 2w.

Operators act by explicit fermion moves E_{i,j} (move a fermion from
slot j to slot i).  The wedge sign is the parity of the occupied slots
between source and target, an ``int.bit_count`` of a masked range plus
the vacuum's occupied negative slots.  Linear combinations of basis
states are dicts mapping states to amplitudes.  The public operators
keep exact rationals; the cached kets and bras keep Python ints, with
each insertion scaled by 2^j j!, and ``oracle_disconnected`` divides by
the one common denominator at the end.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, inf

from .series import Q

VACUUM = (0, 0)


class OracleWindowError(RuntimeError):
    """A fermion move landed outside the configured slot window."""


def _moves(state, k, window):
    """Yield (state', odd, dw) for each slot w that E_{w+k, w} moves.

    dw = 2w is the doubled source slot and odd the parity of the wedge
    sign.  For k = 0 the terms are the normally ordered diagonal action
    instead: +1 on each occupied positive slot, -1 on each empty negative
    one.  A move touching a slot of bit index >= window raises.
    """
    parts, holes = state
    if k == 0:
        for mask, odd, side in ((parts, False, 1), (holes, True, -1)):
            while mask:
                t = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                yield state, odd, side * (2 * t + 1)
        return
    a = abs(k)
    span = (1 << (a - 1)) - 1
    # moves on one side of zero: bits l and l + a trade occupancy; the
    # negative side's occupancy is ~holes, whose bits run the other way
    for occ, side in ((parts, 1), (~holes, -1)):
        from_low = k * side > 0
        low = occ & ~(occ >> a) if from_low else (occ >> a) & ~occ
        if low.bit_length() + a > window and low:
            raise OracleWindowError(f"a move by {k} leaves the window "
                                    f"+-{window}")
        while low:
            l = (low & -low).bit_length() - 1
            low &= low - 1
            pair = (1 << l) | (1 << (l + a))
            odd = (occ >> (l + 1) & span).bit_count() & 1
            nstate = ((parts ^ pair, holes) if side > 0
                      else (parts, holes ^ pair))
            yield nstate, odd, side * (2 * (l if from_low else l + a) + 1)
    # moves across zero, between particle bit p and hole bit a - 1 - p
    for p in range(a):
        q = a - 1 - p
        if (parts >> p & 1) == (holes >> q & 1) == (k < 0):
            if max(p, q) >= window:
                raise OracleWindowError(f"a move by {k} leaves the window "
                                        f"+-{window}")
            odd = ((parts & ((1 << p) - 1)).bit_count() + q
                   + (holes & ((1 << q) - 1)).bit_count()) & 1
            yield ((parts ^ (1 << p), holes ^ (1 << q)), odd,
                   2 * p + 1 if k < 0 else -2 * q - 1)


def apply_E(state, di, dj):
    """E_{i,j} on a basis state, slots given doubled.

    Returns (state', sign) moving a fermion from slot j to slot i, or
    None when the move annihilates the state.  For i == j this is the
    normally ordered diagonal action: +1 on an occupied positive slot,
    -1 on an empty negative slot, 0 otherwise (so the vacuum is killed).
    """
    if di % 2 == 0 or dj % 2 == 0:
        raise ValueError("slots must be half-integers (doubled odd ints)")
    for nstate, odd, dw in _moves(state, (di - dj) // 2, inf):
        if dw == dj:
            return nstate, -1 if odd else 1
    return None


def _apply_moves(comb, k, j, window):
    """Sum over slots w of (2w + k)^j E_{w+k, w} on a combination.

    Amplitudes may be ints or rationals; the coefficient is an int.
    """
    out = {}
    for state, amp in comb.items():
        for nstate, odd, dw in _moves(state, k, window):
            c = (dw + k) ** j
            if c:
                v = out.get(nstate, 0) + (-amp * c if odd else amp * c)
                if v:
                    out[nstate] = v
                else:
                    out.pop(nstate, None)
    return out


def apply_alpha(comb, n, window):
    """alpha_n = sum_w E_{w-n, w} on a combination of states."""
    if n == 0:
        raise ValueError("alpha_0 is the charge operator; not used here")
    return _apply_moves(comb, -n, 0, window)


def apply_insertion_coeff(comb, k, j, window):
    """[z^j] of the energy -k insertion operator on a combination.

    This is sum_w (w + k/2)^j / j! * E_{w+k, w}; at k = 0 it is the tilde
    variant sum_w w^j / j! * E_{w,w} (no central correction).
    """
    den = 2 ** j * factorial(j)
    return {st: Q(v, den)
            for st, v in _apply_moves(comb, k, j, window).items()}


def default_window(mu, nu, k, r, s):
    """Slot window comfortably containing every reachable deviation."""
    return max(sum(mu), sum(nu), 1) + s * (abs(k) + r + 2) + 2


@lru_cache(maxsize=64)
def _alpha_built_state(parts):
    """Product of alpha_{-p} over parts, applied to the vacuum (cached).

    Amplitudes are ints.  No fermion moves further than sum(parts) - 1/2
    from zero, so a window of sum(parts) always holds the state.
    """
    comb = {VACUUM: 1}
    for p in parts:
        comb = _apply_moves(comb, p, 0, sum(parts))
    return comb


@lru_cache(maxsize=8)
def _ket_state(nu, k, r, s):
    """(2^j j!)^s Insertions^s alpha_{-nu} |vacuum>, j = r + 1, in ints.

    The window is default_window's for the balanced mu, |mu| = |nu| + s k.
    """
    window = default_window((sum(nu) + s * k,), nu, k, r, s)
    comb = _alpha_built_state(nu)
    for _ in range(s):
        comb = _apply_moves(comb, k, r + 1, window)
    return comb


def oracle_disconnected(mu, nu, k, r, s, literal=False):
    """Disconnected leaky Hurwitz number by direct Fock-space evaluation.

    Applies, right to left on the vacuum: alpha_{-nu_j}, then s copies of
    the [z^(r+1)] insertion coefficient, then reads off the cap against
    the alpha-built bra; divides by prod(mu) * prod(nu) and the
    insertions' common denominator.  The bra pairing equals literally
    applying alpha_{mu_i} and reading the vacuum coefficient (alpha_n and
    alpha_{-n} are mutually adjoint fermion moves); literal=True runs
    that slower route instead, kept as an internal cross-check.
    """
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    if any(p <= 0 for p in mu + nu):
        raise ValueError("partition parts must be positive")
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    if sum(mu) != sum(nu) + s * k:
        return Q(0)
    ket = _ket_state(nu, k, r, s)
    den = (2 ** (r + 1) * factorial(r + 1)) ** s
    for p in mu + nu:
        den *= p
    if literal:
        comb, window = ket, default_window(mu, nu, k, r, s)
        for p in mu:
            comb = apply_alpha(comb, p, window)
        return Q(comb.get(VACUUM, 0), den)
    bra = _alpha_built_state(mu)
    small, big = (bra, ket) if len(bra) <= len(ket) else (ket, bra)
    val = 0
    for state, amp in small.items():
        other = big.get(state)
        if other is not None:
            val += amp * other
    return Q(val, den)
