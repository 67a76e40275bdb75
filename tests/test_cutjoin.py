"""Cut-and-join operator: weights, application, and the PDE identity."""
import pytest

from leakyhurwitz.cutjoin import (
    apply_Q,
    generating_slice,
    partitions_of,
    q_weight,
    verify_cut_and_join,
)
from leakyhurwitz.series import Q


class TestQWeight:
    def test_join_weight(self):
        assert q_weight((2,), (1, 1), 0, 1) == 1

    def test_cut_weight(self):
        assert q_weight((1, 1), (2,), 0, 1) == 1

    def test_absorbing_weight(self):
        assert q_weight((1,), (1, 1), -1, 1) == Q(1, 2)

    def test_pure_creation_weight(self):
        assert q_weight((2,), (), 2, 1) == Q(1, 4)

    def test_parity_vanishing(self):
        assert q_weight((1, 1), (1,), 1, 2) == 0
        assert q_weight((1,), (1,), 0, 1) == 0

    def test_higher_completion(self):
        assert q_weight((3,), (1,), 2, 2) == Q(9, 8)

    def test_imbalance_rejected(self):
        with pytest.raises(ValueError):
            q_weight((1,), (1, 1), 1, 1)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            q_weight((), (), 0, 1)

    @pytest.mark.parametrize("r,k", [(0, 1), (-1, 1)])
    def test_bad_r_rejected(self, r, k):
        with pytest.raises(ValueError, match="need r >= 1"):
            q_weight((2,), (1,), k, r)


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
