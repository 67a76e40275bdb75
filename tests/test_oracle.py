"""Tests for the brute-force fermionic evaluator."""
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz.numbers import partitions_of
from leakyhurwitz.oracle import (
    VACUUM,
    OracleWindowError,
    _alpha_built_state,
    _ket_state,
    apply_E,
    apply_alpha,
    apply_insertion_coeff,
    default_window,
    oracle_disconnected,
)
from leakyhurwitz.series import Q


def basis(particles=(), holes=()):
    """Bitmask state from doubled slots: particles > 0, holes < 0."""
    return (sum(1 << (d >> 1) for d in particles),
            sum(1 << (-d >> 1) for d in holes))


def slots(state):
    """Doubled (particle slots, hole slots) of a bitmask state."""
    parts, holes = state
    return ({2 * t + 1 for t in range(parts.bit_length()) if parts >> t & 1},
            {-2 * t - 1 for t in range(holes.bit_length()) if holes >> t & 1})


def brute_E(particles, holes, di, dj):
    """E_{i,j} on explicit slot sets, counting occupied slots one by one."""
    def occupied(d):
        return d in particles if d > 0 else d not in holes
    if di == dj:
        if dj > 0:
            return ((particles, holes), 1) if dj in particles else None
        return ((particles, holes), -1) if dj in holes else None
    if not occupied(dj) or occupied(di):
        return None
    lo, hi = sorted((di, dj))
    between = sum(occupied(d) for d in range(lo + 2, hi, 2))
    particles = (particles - {dj}) | ({di} if di > 0 else set())
    holes = (holes - {di}) | ({dj} if dj < 0 else set())
    return (particles, holes), -1 if between % 2 else 1


def comb_sub(a, b):
    out = dict(a)
    for st, v in b.items():
        w = out.get(st, Q(0)) - v
        if w == 0:
            out.pop(st, None)
        else:
            out[st] = w
    return out


class TestApplyE:
    def test_vacuum_annihilated_by_diagonal(self):
        assert apply_E(VACUUM, 1, 1) is None
        assert apply_E(VACUUM, -1, -1) is None

    def test_diagonal_signs(self):
        state = basis({1}, {-1})
        assert apply_E(state, 1, 1) == (state, 1)
        assert apply_E(state, -1, -1) == (state, -1)
        assert apply_E(state, 3, 3) is None
        assert apply_E(state, -3, -3) is None

    def test_simple_move(self):
        state, sign = apply_E(VACUUM, 1, -1)
        assert state == basis({1}, {-1})
        assert sign == 1

    def test_move_crossing_one_occupied_slot(self):
        # moving -3/2 up to 3/2 passes the occupied slot -1/2
        state, sign = apply_E(VACUUM, 3, -3)
        assert state == basis({3}, {-3})
        assert sign == -1

    def test_move_crossing_empty_slot(self):
        # moving -1/2 up to 3/2 passes only the empty slot 1/2
        state, sign = apply_E(VACUUM, 3, -1)
        assert state == basis({3}, {-1})
        assert sign == 1

    def test_pauli_blocking(self):
        state = basis({1}, {-1})
        assert apply_E(state, 1, 3) is None  # source empty
        assert apply_E(state, 1, -3) is None  # target full

    def test_even_slot_rejected(self):
        with pytest.raises(ValueError):
            apply_E(VACUUM, 2, 1)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sets(st.integers(0, 9)), st.sets(st.integers(0, 9)),
           st.integers(-10, 9), st.integers(-10, 9))
    def test_matches_a_count_over_explicit_slots(self, pbits, hbits, i, j):
        particles = {2 * t + 1 for t in pbits}
        holes = {-2 * t - 1 for t in hbits}
        got = apply_E(basis(particles, holes), 2 * i + 1, 2 * j + 1)
        want = brute_E(particles, holes, 2 * i + 1, 2 * j + 1)
        if want is None:
            assert got is None
        else:
            assert (slots(got[0]), got[1]) == want


class TestAlpha:
    def test_alpha_pairing_norm(self):
        # <alpha_d alpha_{-d}> = d
        for d in (1, 2, 3, 5, 8):
            ket = apply_alpha({VACUUM: Q(1)}, -d, d + 4)
            val = sum(v * v for v in ket.values())
            assert val == d

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_alpha({VACUUM: Q(1)}, 0, 10)

    def test_alpha_built_states_fit_a_window_of_their_size(self):
        # the cache keys on the parts alone and builds with window |p|
        _alpha_built_state.cache_clear()
        for total in range(11):
            for p in partitions_of(total):
                wide = {VACUUM: Q(1)}
                for part in p:
                    wide = apply_alpha(wide, -part, 2 * total + 4)
                assert _alpha_built_state(p) == wide, p

    def test_window_overflow_raises(self):
        with pytest.raises(OracleWindowError):
            apply_alpha({VACUUM: Q(1)}, -5, 2)

    def test_commutator_is_central(self):
        # [alpha_a, alpha_b] = a * delta_{a+b,0} on random states
        rng = random.Random(11)
        W = 40
        for _ in range(30):
            comb = {VACUUM: Q(1)}
            for _ in range(rng.randrange(0, 4)):
                comb = apply_alpha(comb, rng.choice([-3, -2, -1, 1, 2]), W)
            if not comb:
                comb = {VACUUM: Q(1)}
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            b = rng.choice([-3, -2, -1, 1, 2, 3])
            ab = apply_alpha(apply_alpha(comb, b, W), a, W)
            ba = apply_alpha(apply_alpha(comb, a, W), b, W)
            diff = comb_sub(ab, ba)
            expect = {}
            if a + b == 0:
                expect = {st: Q(a) * v for st, v in comb.items() if v != 0}
            assert diff == expect


class TestInsertion:
    def test_diagonal_insertion_is_energy_power(self):
        # [z^j] of the regularized zero-shift operator acts diagonally
        ket = apply_alpha({VACUUM: Q(1)}, -3, 10)
        out = apply_insertion_coeff(ket, 0, 2, 10)
        for state, v in out.items():
            p, h = slots(state)
            energy = sum(Q(x, 2) for x in p) - sum(Q(x, 2) for x in h)
            en2 = sum(Q(x, 2) ** 2 for x in p) - sum(Q(x, 2) ** 2 for x in h)
            assert energy == 3
            assert v == ket[state] * en2 / 2

    def test_vacuum_killed_by_diagonal(self):
        assert apply_insertion_coeff({VACUUM: Q(1)}, 0, 2, 10) == {}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_integer_ket_is_scaled_rational_insertions(self, data):
        nu = data.draw(st.sampled_from(partitions_of(data.draw(
            st.integers(0, 6)))))
        k, r, s = (data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 2)),
                   data.draw(st.integers(0, 3)))
        window = default_window((sum(nu) + s * k,), nu, k, r, s)
        comb = {VACUUM: Q(1)}
        for p in nu:
            comb = apply_alpha(comb, -p, window)
        for _ in range(s):
            comb = apply_insertion_coeff(comb, k, r + 1, window)
        den = (2 ** (r + 1) * factorial(r + 1)) ** s
        assert {state: Q(v, den)
                for state, v in _ket_state(nu, k, r, s).items()} == comb

    def test_moving_insertion_shifts_energy(self):
        ket = apply_alpha({VACUUM: Q(1)}, -2, 12)
        out = apply_insertion_coeff(ket, -1, 2, 12)
        for state in out:
            p, h = slots(state)
            energy = sum(Q(x, 2) for x in p) - sum(Q(x, 2) for x in h)
            assert energy == 3


class TestDisconnected:
    def test_alpha_only_diagonal(self):
        # <alpha_mu alpha_{-nu}> = delta_{mu,nu} |Aut mu| prod(mu)
        assert oracle_disconnected((2,), (2,), 0, 1, 0) == Q(1, 2)
        assert oracle_disconnected((1, 1), (1, 1), 0, 1, 0) == 2
        assert oracle_disconnected((2,), (1, 1), 0, 1, 0) == 0
        assert oracle_disconnected((2, 1), (2, 1), 5, 2, 0) == Q(1, 2)
        assert oracle_disconnected((3, 1, 1), (3, 1, 1), 0, 1, 0) == Q(2, 3)

    def test_energy_mismatch_is_zero(self):
        assert oracle_disconnected((3,), (1, 1), 2, 1, 1) == 0
        assert oracle_disconnected((3,), (1, 1), 0, 1, 2) == 0

    @pytest.mark.parametrize("mu,nu,k,r,s,value", [
        ((2,), (1, 1), 0, 1, 1, 1),   # classical simple double Hurwitz
        ((1, 1), (1,), 1, 1, 1, 1),
        ((2,), (1,), 1, 1, 1, 0),
        ((3,), (1, 1), 1, 1, 1, 1),
        ((5,), (2, 2), 1, 1, 1, 1),
        ((4,), (1, 1), 2, 1, 1, 1),
    ])
    def test_hand_computed_values(self, mu, nu, k, r, s, value):
        assert oracle_disconnected(mu, nu, k, r, s) == value

    def test_literal_route_agrees(self):
        cases = [
            ((2,), (1, 1), 0, 1, 1),
            ((1, 1), (1,), 1, 1, 1),
            ((5,), (2, 2), 1, 1, 1),
            ((3, 2), (2, 1), 1, 2, 2),
            ((2, 2), (3, 3), -1, 1, 2),
            ((3, 1), (1, 1), 1, 1, 2),
        ]
        for args in cases:
            assert (oracle_disconnected(*args)
                    == oracle_disconnected(*args, literal=True))

    def test_swap_duality(self):
        rng = random.Random(5)
        for _ in range(12):
            m = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))]
            n = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))]
            s = rng.randrange(0, 3)
            r = rng.randrange(1, 3)
            diff = sum(m) - sum(n)
            if s == 0:
                k = rng.choice([-1, 1])
                if diff != 0:
                    continue
            elif diff % s == 0:
                k = diff // s
            else:
                continue
            assert (oracle_disconnected(tuple(m), tuple(n), k, r, s)
                    == oracle_disconnected(tuple(n), tuple(m), -k, r, s))

    def test_bad_parts_rejected(self):
        with pytest.raises(ValueError):
            oracle_disconnected((0,), (1,), 1, 1, 0)

    @pytest.mark.parametrize("r,s", [(1, -1), (0, 1), (-2, 0)])
    def test_bad_r_or_s_rejected_before_the_window(self, r, s):
        with pytest.raises(ValueError, match="need r >= 1 and s >= 0"):
            oracle_disconnected((1,), (1,), 0, r, s)
