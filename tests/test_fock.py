"""Engine tests: connected correlators from the commutation recursion."""
import pytest

from leakyhurwitz.fock import (
    alpha_op,
    clear_memo,
    commutation_tree_dot,
    connected_hurwitz,
    connected_vev_series,
    disconnected_vev_series,
    hurwitz_sequence,
    insertion_op,
)
from leakyhurwitz.oracle import oracle_disconnected
from leakyhurwitz.series import Q


class TestOperatorLabels:
    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha_op(0)

    def test_uncorrected_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            insertion_op(0, 0, corrected=False)

    def test_zero_energy_defaults_to_corrected(self):
        assert insertion_op(0, 0).corrected

    def test_nonzero_energy_defaults_to_plain(self):
        assert not insertion_op(-2, 1).corrected


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

    def test_memo_survives_clearing(self):
        clear_memo()
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
        assert connected_hurwitz((5,), (1, 1, 1), 1, 1, 2, caps=caps) == 9
        assert connected_hurwitz((6, 2), (3, 1), 2, 1, 2, caps=caps) == 10

    @pytest.mark.parametrize("caps", [(1, 2), (2,), (2, 2, 2)])
    def test_bad_caps_rejected(self, caps):
        # checked before the shortcuts, so an unbalanced query raises too
        for mu in ((5,), (4,)):
            with pytest.raises(ValueError):
                connected_hurwitz(mu, (1, 1, 1), 1, 1, 2, caps=caps)

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

    def test_matches_oracle_route(self):
        mu, nu, k, r, s = (2, 1), (1, 1, 1), 0, 1, 1
        ops = hurwitz_sequence(mu, nu, k, s)
        series = disconnected_vev_series(ops, (r + 1,) * s)
        got = series.coefficient((r + 1,)) / Q(2 * 1 * 1 * 1 * 1)
        assert got == oracle_disconnected(mu, nu, k, r, s)

    def test_empty_sequence_is_one(self):
        assert disconnected_vev_series([], ()).coefficient(()) == 1


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
