"""Tests for the brute-force fermionic evaluator."""
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz import oracle
from leakyhurwitz.numbers import partition_count, partitions_of
from leakyhurwitz.oracle import (
    VACUUM,
    _alpha_built_state,
    _apply_moves,
    _ket_state,
    _moves,
    apply_alpha,
    apply_insertion_coeff,
    oracle_disconnected,
)
from leakyhurwitz.series import Q
from leakyhurwitz.verify import clear_caches


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


def moves(state, k):
    """The moves of _moves(state, k) as {doubled source: (state', sign)}."""
    return {dw: (nstate, -1 if odd else 1)
            for nstate, odd, dw in _moves(state, k)}


class TestApplyE:
    """The fermion moves E_{w+k, w} that _moves yields."""

    def test_vacuum_annihilated_by_diagonal(self):
        assert moves(VACUUM, 0) == {}

    def test_diagonal_signs(self):
        state = basis({1}, {-1})
        assert moves(state, 0) == {1: (state, 1), -1: (state, -1)}

    def test_simple_move(self):
        assert moves(VACUUM, 1) == {-1: (basis({1}, {-1}), 1)}

    def test_move_crossing_one_occupied_slot(self):
        # moving -3/2 up to 3/2 passes the occupied slot -1/2
        assert moves(VACUUM, 3)[-3] == (basis({3}, {-3}), -1)

    def test_move_crossing_empty_slot(self):
        # moving -1/2 up to 3/2 passes only the empty slot 1/2
        assert moves(VACUUM, 2)[-1] == (basis({3}, {-1}), 1)

    def test_pauli_blocking(self):
        state = basis({1}, {-1})
        assert 3 not in moves(state, -1)  # source empty
        assert -3 not in moves(state, 2)  # target full

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sets(st.integers(0, 9)), st.sets(st.integers(0, 9)),
           st.integers(-12, 12))
    def test_matches_a_count_over_explicit_slots(self, pbits, hbits, k):
        # the whole move set: a source beyond +-(2|k| + 21) and its target
        # lie past every slot the masks touch, so both are filled or both
        # are empty and no move starts there
        particles = {2 * t + 1 for t in pbits}
        holes = {-2 * t - 1 for t in hbits}
        edge = 2 * abs(k) + 21
        want = {}
        for dj in range(-edge, edge + 1, 2):
            move = brute_E(particles, holes, dj + 2 * k, dj)
            if move is not None:
                want[dj] = move
        got = list(_moves(basis(particles, holes), k))
        assert len(got) == len(want)
        assert {dw: (slots(nstate), -1 if odd else 1)
                for nstate, odd, dw in got} == want


def reference_moves(comb, k, j):
    """Sum over source slots of (2w + k)^j E_{w+k, w}, from brute_E."""
    out = {}
    for state, amp in comb.items():
        particles, holes = slots(state)
        edge = 2 * abs(k) + 2 * max(state[0].bit_length(),
                                    state[1].bit_length()) + 3
        for dj in range(-edge, edge + 1, 2):
            move = brute_E(particles, holes, dj + 2 * k, dj)
            if move is not None:
                nstate = basis(*move[0])
                out[nstate] = (out.get(nstate, 0)
                               + move[1] * amp * (dj + k) ** j)
    return {st: v for st, v in out.items() if v}


def memo_size():
    return sum(map(len, oracle._MOVES.values()))


class TestMoveMemo:
    """_apply_moves marks a state at its first visit, stores its signed
    moves at its second and reads them from its third."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.dictionaries(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                           st.integers(-9, 9).filter(bool), min_size=1,
                           max_size=6),
           st.integers(-6, 6), st.integers(0, 3))
    def test_marked_stored_and_read_paths_match_explicit_slots(
            self, comb, k, j):
        oracle._MOVES.clear()
        want = reference_moves(comb, k, j)
        assert _apply_moves(comb, k, j) == want
        assert all(oracle._MOVES[k, j][state] is False for state in comb)
        assert _apply_moves(comb, k, j) == want
        assert all(isinstance(oracle._MOVES[k, j][state], list)
                   for state in comb)
        assert _apply_moves(comb, k, j) == want

    @pytest.mark.parametrize("k,j", [(1, 1), (1, 3), (-1, 1), (-1, 2)])
    def test_state_with_only_zero_coefficients(self, k, j, clean_caches):
        # the one move of lone crosses zero with dw + k = 0, so it is
        # stored as an empty list and adds nothing on any path
        lone = VACUUM if k > 0 else basis({1}, {-1})
        assert [dw + k for _, _, dw in _moves(lone, k)] == [0]
        other = basis({3}, {-1})
        comb = {lone: 2, other: -3}
        want = reference_moves({other: -3}, k, j)
        assert want and reference_moves(comb, k, j) == want
        for _ in range(3):
            assert _apply_moves(comb, k, j) == want
        assert oracle._MOVES[k, j][lone] == []

    def test_cold_query_keeps_no_moves(self, clean_caches):
        # a query and then its dual: their insertions run under different
        # (k, j), and the alpha-built states come from their own cache
        assert oracle_disconnected((8, 6, 4), (6, 5, 3), 1, 1, 4) == (
            oracle_disconnected((6, 5, 3), (8, 6, 4), -1, 1, 4))
        assert memo_size() > 0
        assert all(v is False for memo in oracle._MOVES.values()
                   for v in memo.values())

    def test_memo_stays_under_its_cap(self, monkeypatch, clean_caches):
        queries = [(mu, nu, k, 1, 2) for mu in partitions_of(5)
                   for k in (-1, 0, 1) for nu in partitions_of(5 - 2 * k)]
        want = [oracle_disconnected(*q) for q in queries]
        assert memo_size() <= oracle._MOVE_CAP
        monkeypatch.setattr(oracle, "_MOVE_CAP", 60)
        clear_caches()
        got, sizes = [], []
        for q in queries:
            _ket_state.cache_clear()
            _alpha_built_state.cache_clear()
            got.append(oracle_disconnected(*q))
            sizes.append(memo_size())
        assert got == want
        assert max(sizes) <= 60
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        # a combination larger than the cap leaves the memo empty
        big = _alpha_built_state((1,) * 12)
        assert len(big) == partition_count(12) == 77
        _apply_moves(big, 1, 2)
        assert memo_size() == 0


class TestAlpha:
    def test_alpha_pairing_norm(self):
        # <alpha_d alpha_{-d}> = d
        for d in (1, 2, 3, 5, 8):
            ket = apply_alpha({VACUUM: Q(1)}, -d)
            val = sum(v * v for v in ket.values())
            assert val == d

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_alpha({VACUUM: Q(1)}, 0)

    def test_alpha_built_states_match_apply_alpha(self, clean_caches):
        # the cached int build equals rational alpha_{-p} from the vacuum
        for total in range(11):
            for p in partitions_of(total):
                wide = {VACUUM: Q(1)}
                for part in p:
                    wide = apply_alpha(wide, -part)
                assert _alpha_built_state(p) == wide, p

    def test_commutator_is_central(self):
        # [alpha_a, alpha_b] = a * delta_{a+b,0} on random states
        rng = random.Random(11)
        for _ in range(30):
            comb = {VACUUM: Q(1)}
            for _ in range(rng.randrange(0, 4)):
                comb = apply_alpha(comb, rng.choice([-3, -2, -1, 1, 2]))
            if not comb:
                comb = {VACUUM: Q(1)}
            a = rng.choice([-3, -2, -1, 1, 2, 3])
            b = rng.choice([-3, -2, -1, 1, 2, 3])
            ab = apply_alpha(apply_alpha(comb, b), a)
            ba = apply_alpha(apply_alpha(comb, a), b)
            diff = comb_sub(ab, ba)
            expect = {}
            if a + b == 0:
                expect = {st: Q(a) * v for st, v in comb.items() if v != 0}
            assert diff == expect


class TestInsertion:
    def test_diagonal_insertion_is_energy_power(self):
        # [z^j] of the regularized zero-shift operator acts diagonally
        ket = apply_alpha({VACUUM: Q(1)}, -3)
        out = apply_insertion_coeff(ket, 0, 2)
        for state, v in out.items():
            p, h = slots(state)
            energy = sum(Q(x, 2) for x in p) - sum(Q(x, 2) for x in h)
            en2 = sum(Q(x, 2) ** 2 for x in p) - sum(Q(x, 2) ** 2 for x in h)
            assert energy == 3
            assert v == ket[state] * en2 / 2

    def test_vacuum_killed_by_diagonal(self):
        assert apply_insertion_coeff({VACUUM: Q(1)}, 0, 2) == {}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_integer_ket_is_scaled_rational_insertions(self, data):
        nu = data.draw(st.sampled_from(partitions_of(data.draw(
            st.integers(0, 6)))))
        k, r, s = (data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 2)),
                   data.draw(st.integers(0, 3)))
        comb = {VACUUM: Q(1)}
        for p in nu:
            comb = apply_alpha(comb, -p)
        for _ in range(s):
            comb = apply_insertion_coeff(comb, k, r + 1)
        den = (2 ** (r + 1) * factorial(r + 1)) ** s
        assert {state: Q(v, den)
                for state, v in _ket_state(nu, k, r, s).items()} == comb

    def test_moving_insertion_shifts_energy(self):
        ket = apply_alpha({VACUUM: Q(1)}, -2)
        out = apply_insertion_coeff(ket, -1, 2)
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
        for mu, nu, k, r, s in cases:
            # apply alpha_{mu_i} to the ket literally and read the vacuum
            # coefficient, instead of pairing with the alpha-built bra
            comb = _ket_state(nu, k, r, s)
            for p in mu:
                comb = apply_alpha(comb, p)
            den = (2 ** (r + 1) * factorial(r + 1)) ** s
            for p in mu + nu:
                den *= p
            assert (oracle_disconnected(mu, nu, k, r, s)
                    == Q(comb.get(VACUUM, 0), den))

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
    def test_bad_r_or_s_rejected(self, r, s):
        with pytest.raises(ValueError, match="need r >= 1 and s >= 0"):
            oracle_disconnected((1,), (1,), 0, r, s)

    @pytest.mark.parametrize("mu,nu,k,r,s", [
        ((2.0,), (1,), 1, 1, 1), ((2,), (Q(1),), 1, 1, 1),
        ((2,), (1,), 1.0, 1, 1), ((2,), (1,), 1, 1.0, 1),
        ((2,), (1,), 1, 1, 1.0)])
    def test_non_integer_input_raises_type_error(self, mu, nu, k, r, s):
        with pytest.raises(TypeError):
            oracle_disconnected(mu, nu, k, r, s)

    def test_rejected_float_r_leaves_the_ket_cache_clean(self, clean_caches):
        # 1.0 hashes like 1: a float r that reached _ket_state would
        # cache float amplitudes under the key of the valid query
        with pytest.raises(TypeError):
            oracle_disconnected((3,), (1,), 1, 1.0, 2)
        assert oracle_disconnected((3,), (1,), 1, 1, 2) == Q(1, 2)
