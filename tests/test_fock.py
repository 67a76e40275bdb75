"""Engine tests: connected and full correlators from the commutation
recursion."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz import fock
from leakyhurwitz.fock import (
    EOp,
    alpha_op,
    commutation_tree_dot,
    connected_hurwitz,
    connected_vev_series,
    disconnected_vev_series,
    hurwitz_sequence,
    insertion_op,
)
from leakyhurwitz.numbers import disconnected_hurwitz, partitions_of
from leakyhurwitz.oracle import oracle_disconnected
from leakyhurwitz.series import Q


def capped_connected(mu, nu, k, r, s, caps):
    """connected_hurwitz read from a correlator truncated at caps, which
    must all be at least r+1 for the coefficient to survive."""
    series = connected_vev_series(hurwitz_sequence(mu, nu, k, s), caps)
    return series.coefficient((r + 1,) * s) / math.prod(mu + nu)


def balanced_queries(max_size, max_s, max_k, rs):
    """Every balanced (mu, nu, k, r, s) with |mu| <= max_size."""
    for size in range(max_size + 1):
        for s in range(max_s + 1):
            for k in range(-max_k, max_k + 1):
                if size - s * k < 0:
                    continue
                for r in rs:
                    for mu in partitions_of(size):
                        for nu in partitions_of(size - s * k):
                            yield mu, nu, k, r, s


class TestOperatorLabels:
    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha_op(0)

    @pytest.mark.parametrize("vev", [connected_vev_series,
                                     disconnected_vev_series])
    def test_zero_energy_label_needs_a_zvar(self, vev):
        # a zero-energy label is the corrected insertion; with no
        # z-variable it would be the central alpha_0
        for ops in ([EOp(0, frozenset())],
                    [alpha_op(1), EOp(0, frozenset()), alpha_op(-1)]):
            with pytest.raises(ValueError, match="needs a z-variable"):
                vev(ops, ())

    def test_merged_and_plain_labels_share_a_memo_entry(self, clean_caches):
        # <a3 E_{-1}(z) a_{-2}> merges into <E_2(z) a_{-2}>, which is
        # also a plain insertion's sequence
        assert connected_hurwitz((3,), (2,), 1, 2, 1) == Q(1, 2)
        before = len(fock._MEMO)
        connected_vev_series([insertion_op(2, 0), alpha_op(-2)], (3,))
        assert len(fock._MEMO) == before


class TestConnectedSeries:
    def test_two_boson_pairing(self):
        s = connected_vev_series([alpha_op(3), alpha_op(-3)], ())
        assert s.coefficient(()) == 3

    def test_wrong_order_kills_vacuum(self):
        s = connected_vev_series([alpha_op(-3), alpha_op(3)], ())
        assert s.is_zero()

    def test_unbalanced_energy_is_zero(self):
        s = connected_vev_series([alpha_op(5), alpha_op(-3)], ())
        assert s.is_zero()

    def test_single_insertion_extraction(self):
        # <a5 E_{-1}(z) a_{-2} a_{-2}>: z^2 coefficient frozen against the
        # fermionic oracle route
        ops = [alpha_op(5), insertion_op(-1, 0), alpha_op(-2), alpha_op(-2)]
        s = connected_vev_series(ops, (2,))
        assert s.coefficient((2,)) == 20

    def test_raw_series_parity_gap(self):
        # the first surviving degree is len(ops)-2 and steps by two
        ops = [alpha_op(2), alpha_op(1), insertion_op(-1, 0), alpha_op(-2)]
        s = connected_vev_series(ops, (3,))
        assert min(sum(e) for e in s.terms) == 2
        assert s.coefficient((3,)) == 0

    def test_memo_survives_clearing(self, clean_caches):
        ops = hurwitz_sequence((5,), (2, 2), 1, 1)
        assert connected_vev_series(ops, (2,)).coefficient((2,)) == 20


class TestConnectedNumbers:
    @pytest.mark.parametrize("mu,nu,k,r,s,value", [
        ((5,), (2, 2), 1, 1, 1, 1),
        ((1, 1), (1,), 1, 1, 1, 1),
        ((2,), (1,), 1, 1, 1, 0),
        ((2,), (1, 1), 0, 1, 1, 1),
        ((3,), (1, 1), 1, 1, 1, 1),
    ])
    def test_hand_values(self, mu, nu, k, r, s, value):
        assert connected_hurwitz(mu, nu, k, r, s) == value

    def test_trivial_cover(self):
        # no insertions: a degree-d cylinder with automorphism weight 1/d
        for d in (1, 2, 5, 9):
            assert connected_hurwitz((d,), (d,), 3, 1, 0) == Q(1, d)
        assert connected_hurwitz((3,), (2, 1), 0, 1, 0) == 0

    def test_one_part_anchor_nine(self):
        assert connected_hurwitz((5,), (1, 1, 1), 1, 1, 2) == 9

    def test_one_part_anchor_two_three_four(self):
        assert connected_hurwitz((7,), (1, 1, 1, 1), 1, 1, 3) == 234

    def test_energy_imbalance(self):
        assert connected_hurwitz((4,), (1, 1), 1, 1, 1) == 0

    def test_empty_mu_single_block(self):
        # <E_3(z) a_{-3}>/3 = [z^2] sigma(3z)/sigma(z) / 3
        assert connected_hurwitz((), (3,), -3, 1, 1) == Q(1, 3)
        assert connected_hurwitz((), (2,), -1, 1, 2) == 0

    def test_both_empty(self):
        assert connected_hurwitz((), (), 0, 1, 0) == 0
        assert connected_hurwitz((), (), 0, 1, 2) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            connected_hurwitz((0,), (1,), 0, 1, 1)
        with pytest.raises(ValueError):
            connected_hurwitz((1,), (1,), 0, 0, 1)
        with pytest.raises(ValueError):
            connected_hurwitz((1,), (1,), 0, 1, -1)

    @pytest.mark.parametrize("caps", [(3, 4), (2, 6), (5, 5)])
    def test_larger_caps_keep_the_value(self, caps):
        assert capped_connected((5,), (1, 1, 1), 1, 1, 2, caps) == 9
        assert capped_connected((6, 2), (3, 1), 2, 1, 2, caps) == 10

    def test_parity_vanishing(self):
        # r*s + m + n odd forces zero
        assert connected_hurwitz((2,), (1,), 1, 1, 1) == 0
        assert connected_hurwitz((3, 1), (2,), 1, 1, 2) == 0
        assert connected_hurwitz((4,), (2, 2), 0, 2, 1) == 0

    def test_duality(self):
        cases = [((5,), (2, 2), 1, 1, 1), ((3, 2), (1, 1, 1), 1, 1, 2),
                 ((4, 2), (2, 1, 1, 1, 1), 0, 1, 2)]
        for mu, nu, k, r, s in cases:
            assert (connected_hurwitz(mu, nu, k, r, s)
                    == connected_hurwitz(nu, mu, -k, r, s))


class TestDisconnectedSeries:
    def test_alpha_factorization(self):
        # <a2 a1 a_{-1} a_{-2}> = 2 disconnected, 0 connected
        ops = [alpha_op(2), alpha_op(1), alpha_op(-1), alpha_op(-2)]
        disc = disconnected_vev_series(ops, ())
        conn = connected_vev_series(ops, ())
        assert disc.coefficient(()) == 2
        assert conn.coefficient(()) == 0

    def test_zero_energy_prefix_survives_only_disconnected(self):
        # the first swap leaves <a1 a_{-1} | a1 a_{-1}>, whose prefix has
        # energy zero: it factorizes into 1 * 1 in the full expectation,
        # beside the central term 1 * <a1 a_{-1}>, and splits off a
        # component in the connected one
        ops = [alpha_op(1), alpha_op(1), alpha_op(-1), alpha_op(-1)]
        assert disconnected_vev_series(ops, ()).coefficient(()) == 2
        assert connected_vev_series(ops, ()).is_zero()

    def test_matches_oracle_route(self):
        # one test over the whole grid, so a failure lists every mismatch
        checked, mismatches = 0, []
        for mu, nu, k, r, s in balanced_queries(4, 2, 2, (1, 2)):
            series = disconnected_vev_series(hurwitz_sequence(mu, nu, k, s),
                                             (r + 1,) * s)
            got = series.coefficient((r + 1,) * s) / math.prod(mu + nu)
            want = (oracle_disconnected(mu, nu, k, r, s),
                    disconnected_hurwitz(mu, nu, k, r, s))
            checked += 1
            if (got, got) != want:
                mismatches.append((mu, nu, k, r, s, got, want))
        assert checked == 1538
        assert not mismatches, mismatches[:5]

    def test_insertions_on_a_subset_of_the_caps(self):
        # as in a wall-crossing factor: two insertions in z1 and z3 of
        # three variables; nothing may depend on the unused z2
        ops = [alpha_op(3), alpha_op(1), insertion_op(-1, 0),
               insertion_op(-1, 2), alpha_op(-1), alpha_op(-1)]
        series = disconnected_vev_series(ops, (2, 3, 2))
        assert all(e[1] == 0 for e in series.terms)
        got = series.coefficient((2, 0, 2)) / 3
        assert got == oracle_disconnected((3, 1), (1, 1), 1, 1, 2) == 6
        assert got == disconnected_hurwitz((3, 1), (1, 1), 1, 1, 2)

    def test_empty_sequence_is_one(self):
        assert disconnected_vev_series([], ()).coefficient(()) == 1


@st.composite
def labelled_sequences(draw):
    """A short balanced sequence on some of nvars variables, non-uniform
    caps, and a permutation of the variables."""
    nvars = draw(st.integers(1, 3))
    caps = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars,
                               max_size=nvars)))
    # each variable joins one of nvars labels, or none except z_1; a
    # label of two variables is a merged one
    owner = [draw(st.integers(0 if v == 0 else -1, nvars - 1))
             for v in range(nvars)]
    ops = []
    for label in range(nvars):
        zvars = frozenset(v for v in range(nvars) if owner[v] == label)
        if zvars:
            energy = draw(st.integers(-2, 2))
            ops.append(EOp(energy, zvars))
    ops += [alpha_op(n) for n in draw(st.lists(
        st.sampled_from((-3, -2, -1, 1, 2, 3)), max_size=3))]
    balance = -sum(op.energy for op in ops)
    if balance:
        ops.append(alpha_op(balance))
    ops = draw(st.permutations(ops))
    return ops, caps, draw(st.permutations(range(nvars)))


def renamed(ops, caps, perm):
    """Variable i renamed perm[i] in the labels and the caps."""
    new_caps = [0] * len(caps)
    for i, j in enumerate(perm):
        new_caps[j] = caps[i]
    return ([op._replace(zvars=frozenset(perm[v] for v in op.zvars))
             for op in ops], tuple(new_caps))


class TestRelabelling:
    """The memo shares one entry among all labellings of a sequence, so
    a renamed sequence must give the series with its exponents renamed."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(labelled_sequences())
    def test_renamed_sequence_gives_renamed_series(self, drawn):
        ops, caps, perm = drawn
        new_ops, new_caps = renamed(ops, caps, perm)
        for vev in (connected_vev_series, disconnected_vev_series):
            fock._MEMO.clear()
            series = vev(ops, caps)
            want = new_caps, {
                tuple(e[perm.index(j)] for j in range(len(e))): c
                for e, c in series.terms.items()}
            # once against the warm memo, once from a cleared one
            got = vev(new_ops, new_caps)
            assert (got.caps, dict(got.terms)) == want
            fock._MEMO.clear()
            got = vev(new_ops, new_caps)
            assert (got.caps, dict(got.terms)) == want

    @pytest.mark.parametrize("mu,nu,k,r,s,caps", [
        ((6, 2), (3, 1), 2, 1, 2, (2, 4)),
        ((3, 2), (1, 1, 1), 1, 1, 2, (3, 2)),
        ((5, 3), (2, 2, 2), 1, 1, 2, (2, 5)),
        ((4, 2), (3, 1, 1), 1, 1, 1, (3,)),
        ((3, 3), (2, 1), 1, 2, 3, (3, 4, 5)),
        ((4, 1), (2, 1), 1, 1, 2, (2, 3)),
    ])
    def test_caps_order_of_an_earlier_query_is_not_reused(
            self, mu, nu, k, r, s, caps, clean_caches):
        cold = capped_connected(mu, nu, k, r, s, caps)
        fock._MEMO.clear()
        capped_connected(mu, nu, k, r, s, tuple(reversed(caps)))
        assert capped_connected(mu, nu, k, r, s, caps) == cold
        assert cold == connected_hurwitz(mu, nu, k, r, s)

    def test_memo_holds_canonical_keys_only(self, clean_caches):
        # a renamed sequence is served from its canonical entry and
        # leaves no entry under its own labels
        assert connected_hurwitz((9, 3), (6, 2), 2, 1, 2) == 16
        for seq, _, _ in fock._MEMO:
            # labels are (energy, zmask) int pairs, bit i for z_i
            assert all(type(op) is tuple and len(op) == 2
                       and all(type(x) is int for x in op)
                       for op in seq)
            seen = [v for _, m in seq
                    for v in range(m.bit_length()) if m >> v & 1]
            assert seen == list(range(len(seen)))
        assert len(fock._MEMO) == 15


class TestTreeDump:
    def test_dot_output_shape(self):
        ops = hurwitz_sequence((2,), (1, 1), 0, 1)
        dot = commutation_tree_dot(ops, (2,))
        assert dot.startswith("digraph")
        assert "swap" in dot and "merge" in dot

    def test_truncation_marker(self):
        ops = hurwitz_sequence((5,), (2, 2), 1, 1)
        dot = commutation_tree_dot(ops, (2,), max_nodes=4)
        assert "truncated" in dot
