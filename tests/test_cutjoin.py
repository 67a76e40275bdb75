"""Cut-and-join operator: brackets, application, and the PDE identity."""
import pytest

from leakyhurwitz import fock, numbers
from leakyhurwitz.cutjoin import (
    _bracket,
    apply_Q,
    generating_slice,
    partitions_of,
    verify_cut_and_join,
)
from leakyhurwitz.numbers import aut_factor, disconnected_hurwitz
from leakyhurwitz.series import Q


class TestQWeight:
    """The transition bracket before the 1/(|Aut A| |Aut B|) weighting."""

    def test_join_weight(self):
        assert _bracket((1, 1, 2), 1) == 2

    def test_cut_weight(self):
        # cutting 2 into 1 + 1 reverses the join: one multiset, one bracket
        assert _bracket((1, 1, 2), 1) == 2

    def test_absorbing_weight(self):
        assert _bracket((1, 1, 1), 1) == 1

    def test_pure_creation_weight(self):
        assert _bracket((2,), 1) == Q(1, 4)

    def test_parity_vanishing(self):
        assert _bracket((1, 1, 1), 2) == 0
        assert _bracket((1, 1), 1) == 0

    def test_higher_completion(self):
        assert _bracket((1, 3), 2) == Q(9, 8)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            _bracket((), 1)


class TestPartitionsOf:
    def test_counts(self):
        assert len(list(partitions_of(4))) == 5
        assert len(list(partitions_of(6))) == 11

    def test_zero_and_negative(self):
        assert list(partitions_of(0)) == [()]
        assert list(partitions_of(-1)) == []

    def test_max_part(self):
        assert set(partitions_of(4, 2)) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}


class TestApplyQ:
    def test_zero_input(self):
        assert apply_Q({}, 0, 1) == {}
        assert apply_Q({(2,): Q(0)}, 0, 1) == {}

    def test_classical_join(self):
        assert apply_Q({(1, 1): Q(1)}, 0, 1) == {(2,): Q(1)}

    def test_classical_cut(self):
        assert apply_Q({(2,): Q(1)}, 0, 1) == {(1, 1): Q(1)}

    def test_classical_three(self):
        # cutting 3 into 2+1: (i+j) summed over the two ordered splits
        out = apply_Q({(3,): Q(1)}, 0, 1)
        assert out == {(2, 1): Q(3)}

    def test_pure_creation_from_constant(self):
        # the p_1^2 route is killed by parity, leaving exactly p_2;
        # its weight carries the 1/(|Aut A| prod A) operator factor
        assert apply_Q({(): Q(1)}, 2, 1) == {(2,): Q(1, 8)}

    def test_linearity(self):
        f = {(1, 1): Q(3), (2,): Q(-1)}
        out = apply_Q(f, 0, 1)
        assert out[(2,)] == 3
        assert out[(1, 1)] == -1

    def test_energy_grading(self):
        for k in (-2, 0, 1, 3):
            out = apply_Q({(3, 1): Q(1)}, k, 1)
            assert {sum(kk) for kk in out} <= {4 + k}


class TestPdeIdentity:
    @pytest.mark.parametrize("nu,k,r,s", [
        ((1,), 1, 1, 1),
        ((1, 1), 0, 1, 1),
        ((2,), 2, 2, 1),
    ])
    def test_named_cases(self, nu, k, r, s):
        rep = verify_cut_and_join(nu, k, r, s)
        assert rep["ok"], rep["mismatches"]
        assert rep["profiles"] > 0
        assert rep["mismatches"] == []

    def test_empty_profile_margin(self):
        # nu = (3), k = -3, s = 1: the target slice is supported on the
        # empty partition alone, and the step must close onto it
        rep = verify_cut_and_join((3,), -3, 1, 1)
        assert rep["ok"], rep["mismatches"]
        assert generating_slice((3,), -3, 1, 1) != {}
        assert () in generating_slice((3,), -3, 1, 1)

    def test_small_grid(self):
        small = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
        for nu in small:
            for k in (-1, 0, 1, 2):
                for r in (1, 2):
                    for s in (1, 2):
                        rep = verify_cut_and_join(nu, k, r, s)
                        assert rep["ok"], (nu, k, r, s, rep["mismatches"])

    def test_report_shape(self):
        rep = verify_cut_and_join((2,), 1, 1, 1)
        assert set(rep) >= {"nu", "k", "r", "s", "ok", "profiles",
                            "mismatches"}


class TestGeneratingSlice:
    def test_weights_are_aut_normalized(self):
        slice0 = generating_slice((2, 1), 0, 1, 0)
        assert slice0[(2, 1)] == Q(1, 2)

    def test_negative_total_is_empty(self):
        assert generating_slice((2,), -3, 1, 1) == {}

    # both slices are empty here, so only the input check can object
    @pytest.mark.parametrize("k,r,exc", [
        (-3, 0, ValueError),
        (-3, -5, ValueError),
        (-3, 1.5, TypeError),
        (-3.0, 1, TypeError),
    ])
    def test_bad_r_or_k_is_rejected(self, k, r, exc):
        with pytest.raises(exc):
            verify_cut_and_join((1,), k, r, 2)

    # criterion 7 reaches |mu| = 9 here, past criterion 3's |mu| <= 8
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("nu", partitions_of(5))
    def test_slices_match_the_engine(self, nu, r):
        want = {}
        for mu in partitions_of(9):
            val = disconnected_hurwitz(mu, nu, 2, r, 2)
            if val != 0:
                want[mu] = val / aut_factor(mu)
        assert want
        assert generating_slice(nu, 2, r, 2) == want

    def test_slices_do_not_touch_the_engine(self, clean_caches):
        assert verify_cut_and_join((2, 1), 1, 2, 2)["ok"]
        assert numbers.connected_cached.cache_info().misses == 0
        assert not fock._MEMO
