"""Chamber geometry, exact polynomial fits, and wall crossing."""
import random

import pytest

from leakyhurwitz import chambers
from leakyhurwitz.chambers import (
    ChamberFitError,
    ChamberSampleError,
    LatticePoint,
    _h_factor,
    _in_chamber_samples,
    all_walls,
    complement_wall,
    delta_of,
    fit_chamber_polynomial,
    format_chamber_report,
    format_wall_report,
    lattice_point,
    sign_vector,
    wall,
    wall_crossing_genus0,
    wall_crossing_series,
)
from leakyhurwitz.fock import connected_hurwitz
from leakyhurwitz.series import Q

W_FIRST = wall((0,), (0,), 1)
C_PLUS = lattice_point((9, 3), (6, 2), 2)   # delta = +1 on W_FIRST, s = 2
C_MINUS = lattice_point((7, 5), (6, 2), 2)  # delta = -1 on W_FIRST, s = 2


class TestGeometry:
    def test_lattice_point_sorts_and_validates(self):
        p = lattice_point([2, 5], [3, 1], 1)
        assert p.mu == (5, 2) and p.nu == (3, 1)
        with pytest.raises(ValueError):
            lattice_point((0,), (1,), 1)

    def test_delta_examples(self):
        w = W_FIRST
        assert delta_of(w, lattice_point((5, 2), (3, 2), 1)) == 1
        assert delta_of(w, lattice_point((4, 3), (4, 1), 1)) == -1
        assert delta_of(w, lattice_point((4, 3), (3, 2), 1)) == 0

    def test_sign_vector_examples(self):
        walls = all_walls(2, 2, 2)
        idx = walls.index(W_FIRST)
        assert sign_vector(lattice_point((5, 2), (3, 2), 1), 2)[idx] == 1
        assert sign_vector(lattice_point((4, 3), (4, 1), 1), 2)[idx] == -1
        assert sign_vector(lattice_point((4, 3), (3, 2), 1), 2)[idx] == 0

    def test_wall_count(self):
        # (2^(m+n) - 2)(s + 1) walls: every subset pair except the two
        # whose hyperplane degenerates to k = 0
        assert len(all_walls(2, 2, 2)) == (2 ** 4 - 2) * 3
        assert len(all_walls(2, 3, 1)) == (2 ** 5 - 2) * 2
        assert len(all_walls(1, 1, 3)) == 2 * 4

    def test_walls_include_one_sided_subsets_but_not_degenerate_pairs(self):
        walls = all_walls(2, 2, 2)
        assert wall((0,), (), 1) in walls
        assert wall((), (0, 1), 2) in walls
        assert wall((0, 1), (0,), 0) in walls
        assert all(w.I or w.J for w in walls)
        assert all(len(w.I) < 2 or len(w.J) < 2 for w in walls)

    def test_complement_negates_delta_on_balanced_points(self):
        for point in (C_PLUS, C_MINUS):
            for w in all_walls(2, 2, 2):
                wc = complement_wall(w, 2, 2, 2)
                assert delta_of(wc, point) == -delta_of(w, point)

    def test_adjacent_pair_differs_only_on_the_complement_pair(self):
        # a pair of chambers sharing a facet of the first wall: every
        # sign agrees except on that wall and its complement label
        a_plus = lattice_point((11, 1), (13, 5), -3)
        a_minus = lattice_point((6, 3), (12, 5), -4)
        walls = all_walls(2, 2, 2)
        sv1 = sign_vector(a_plus, 2)
        sv2 = sign_vector(a_minus, 2)
        assert 0 not in sv1 and 0 not in sv2
        flipped = [walls[i] for i in range(len(walls)) if sv1[i] != sv2[i]]
        assert set(flipped) == {W_FIRST, complement_wall(W_FIRST, 2, 2, 2)}

    def test_wider_pair_flips_include_the_named_wall(self):
        # C_PLUS and C_MINUS straddle the first wall but also a second
        # hyperplane pair, so they are separated, not facet-adjacent;
        # the flip set is still closed under complement labels
        walls = all_walls(2, 2, 2)
        sv1 = sign_vector(C_PLUS, 2)
        sv2 = sign_vector(C_MINUS, 2)
        assert 0 not in sv1 and 0 not in sv2
        flipped = {walls[i] for i in range(len(walls)) if sv1[i] != sv2[i]}
        assert W_FIRST in flipped
        assert {complement_wall(w, 2, 2, 2) for w in flipped} == flipped


class TestChamberFit:
    def test_two_part_fit_is_the_known_linear_polynomial(self):
        poly = fit_chamber_polynomial(C_PLUS, 1, 2)
        assert poly.degree == 1
        assert poly.coeffs == {
            (1, 0, 0, 0): Q(3, 2), (0, 1, 0, 0): Q(-1, 2),
            (0, 0, 1, 0): Q(1, 2), (0, 0, 0, 1): Q(1, 2)}
        assert poly.realized_degree() == 1

    def test_fit_predicts_fresh_in_chamber_point(self):
        poly = fit_chamber_polynomial(C_PLUS, 1, 2)
        fresh = lattice_point((13, 5), (9, 3), 3)
        assert sign_vector(fresh, 2) == poly.signs
        assert (poly.evaluate(fresh.mu, fresh.nu)
                == connected_hurwitz(fresh.mu, fresh.nu, fresh.k, 1, 2))

    def test_one_part_r2_fit_degree_and_parity(self):
        base = lattice_point((5,), (1,), 2)
        poly = fit_chamber_polynomial(base, 2, 2)
        assert poly.degree == 5
        degrees = {sum(e) for e, c in poly.coeffs.items() if c != 0}
        assert degrees <= {5, 3, 1}
        assert poly.realized_degree() <= 5
        probe = lattice_point((9,), (1,), 4)
        assert sign_vector(probe, 2) == poly.signs
        assert (poly.evaluate(probe.mu, probe.nu)
                == connected_hurwitz(probe.mu, probe.nu, probe.k, 2, 2))

    def test_negative_degree_returns_empty_polynomial(self):
        base = lattice_point((8, 3), (5, 4, 2), 0)
        assert 0 not in sign_vector(base, 1)
        poly = fit_chamber_polynomial(base, 1, 1)
        assert poly.degree < 0 and poly.coeffs == {}
        assert poly.evaluate((8, 3), (5, 4, 2)) == 0
        assert connected_hurwitz((8, 3), (5, 4, 2), 0, 1, 1) == 0

    def test_half_integral_genus_returns_empty_polynomial(self, monkeypatch):
        # r*s + m + n = 11 is odd: every value vanishes, so the fit asks
        # the engine for none of them
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine was called")

        monkeypatch.setattr(chambers, "connected_hurwitz", no_engine)
        base = lattice_point((19, 3), (9, 5, 2), 2)
        poly = fit_chamber_polynomial(base, 2, 3)
        assert poly.coeffs == {}
        assert poly.degree == 5
        assert poly.base == base
        assert poly.signs == sign_vector(base, 3)

    def test_on_wall_base_rejected(self):
        with pytest.raises(ValueError, match="wall"):
            fit_chamber_polynomial(lattice_point((5, 2), (3, 2), 1), 1, 2)

    def test_unbalanced_base_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            fit_chamber_polynomial(lattice_point((5, 2), (3, 2), 2), 1, 2)

    def test_zero_insertions_rejected(self):
        with pytest.raises(ValueError, match="insertion"):
            fit_chamber_polynomial(lattice_point((3,), (3,), 0), 1, 0)

    @pytest.mark.parametrize("r,s", [(0, 2), (-1, 2), (1, -1)])
    @pytest.mark.parametrize("fn,args", [
        (fit_chamber_polynomial, (C_PLUS,)),
        (wall_crossing_series, (W_FIRST, lattice_point((9, 3), (5, 5), 1))),
    ])
    def test_bad_r_or_s_rejected(self, fn, args, r, s):
        with pytest.raises(ValueError, match="need r >= 1 and s >= 0"):
            fn(*args, r, s)

    def test_sampler_gives_up_on_impossible_signs(self):
        impossible = (1,) * len(all_walls(2, 2, 2))
        gen = _in_chamber_samples(C_PLUS, 2, impossible, random.Random(7))
        with pytest.raises(ChamberSampleError):
            next(gen)

    def test_held_out_mismatch_raises(self, monkeypatch):
        # C_PLUS at r=1, s=2 fits 4 monomials from 4 engine calls; every
        # later call, a held-out check, reads one too high
        calls = []

        def off_by_one(mu, nu, k, r, s):
            calls.append((mu, nu, k))
            value = connected_hurwitz(mu, nu, k, r, s)
            return value + 1 if len(calls) > 4 else value

        monkeypatch.setattr(chambers, "connected_hurwitz", off_by_one)
        with pytest.raises(ChamberFitError, match="held-out point"):
            fit_chamber_polynomial(C_PLUS, 1, 2)
        assert len(calls) == 5

    def test_report_format(self):
        poly = fit_chamber_polynomial(C_PLUS, 1, 2)
        text = format_chamber_report(poly)
        assert "degree bound: 1" in text
        assert "m1^1" in text and "3/2" in text


class TestDisconnectedSeries:
    """The H factors of the crossing formula: full correlators of mixed
    shapes divided by the boson energies."""

    def test_one_part_shape_scales_by_energies(self):
        ser = _h_factor([5], [0], [-2, -2], 1, (2,))
        assert ser.coefficient((2,)) == connected_hurwitz(
            (5,), (2, 2), 1, 1, 1)

    def test_empty_shape_is_one(self):
        ser = _h_factor([], [], [], 0, (2,))
        assert ser.coefficient((0,)) == 1
        assert ser.coefficient((2,)) == 0

    def test_unbalanced_shape_is_zero(self):
        ser = _h_factor([3], [0], [-1], 1, (2,))
        assert ser.is_zero()


class TestWallCrossing:
    def test_three_routes_agree_on_the_named_wall(self):
        p1 = fit_chamber_polynomial(C_PLUS, 1, 2)
        p2 = fit_chamber_polynomial(C_MINUS, 1, 2)
        for point, expect in ((C_PLUS, Q(2)), (C_MINUS, Q(-2))):
            series_val = wall_crossing_series(W_FIRST, point, 1, 2)
            poly_val = (p1.evaluate(point.mu, point.nu)
                        - p2.evaluate(point.mu, point.nu))
            genus0_val = wall_crossing_genus0(W_FIRST, point)
            assert series_val == poly_val == genus0_val == expect

    def test_jump_vanishes_on_the_wall(self):
        p1 = fit_chamber_polynomial(C_PLUS, 1, 2)
        p2 = fit_chamber_polynomial(C_MINUS, 1, 2)
        on_wall = lattice_point((8, 4), (6, 2), 2)
        assert delta_of(W_FIRST, on_wall) == 0
        assert (p1.evaluate(on_wall.mu, on_wall.nu)
                == p2.evaluate(on_wall.mu, on_wall.nu))

    def test_on_wall_point_rejected_by_series_route(self):
        with pytest.raises(ValueError, match="wall"):
            wall_crossing_series(W_FIRST, lattice_point((8, 4), (6, 2), 2),
                                 1, 2)
        assert wall_crossing_genus0(
            W_FIRST, lattice_point((8, 4), (6, 2), 2)) == 0

    def test_oversized_t_is_empty_sum(self):
        assert wall_crossing_series(wall((0,), (0,), 3), C_PLUS, 1, 2) == 0

    def test_genus0_matches_series_on_random_walls(self):
        rng = random.Random(97)
        checked = 0
        while checked < 10:
            m = rng.randint(2, 3)
            n = rng.randint(2, 3)
            s = m + n - 2
            k = rng.randint(-2, 2)
            nu = tuple(sorted((rng.randint(1, 5) for _ in range(n)),
                              reverse=True))
            total = sum(nu) + s * k
            if total < m:
                continue
            cuts = sorted(rng.sample(range(1, total), m - 1))
            mu = tuple(sorted(
                (b - a for a, b in zip([0] + cuts, cuts + [total])),
                reverse=True))
            if any(p <= 0 for p in mu):
                continue
            point = lattice_point(mu, nu, k)
            # on a wall the jump is only defined chamber-pair-wise, so
            # only strictly interior points are comparable
            if 0 in sign_vector(point, s):
                continue
            # the crossing formula is stated for two-sided walls only
            walls = [w for w in all_walls(m, n, s)
                     if w.I and w.J and len(w.I) < m and len(w.J) < n]
            w = walls[rng.randrange(len(walls))]
            assert (wall_crossing_series(w, point, 1, s)
                    == wall_crossing_genus0(w, point)), (w, point)
            checked += 1

    @pytest.mark.parametrize("w,point,routes", [
        # the full/full pair that all_walls leaves out
        (wall((0,), (0,), 1), LatticePoint((3,), (3,), 2), ("genus0",)),
        # an index past the parts
        (wall((5,), (0,), 1), lattice_point((9, 3), (6, 2), 2),
         ("series",)),
        (wall((5,), (0,), 1), lattice_point((9, 3), (5, 5), 1),
         ("genus0",)),
        # a negative index, which would read mu[-1]
        (wall((0, -1), (0,), 1), lattice_point((9, 3), (5, 5), 1),
         ("series", "genus0")),
    ], ids=["full-full", "past-mu-series", "past-mu-genus0", "negative"])
    def test_wall_outside_the_arrangement_rejected(self, w, point, routes):
        for route in routes:
            with pytest.raises(ValueError, match=r"^wall I="):
                if route == "series":
                    wall_crossing_series(w, point, 1, 2)
                else:
                    wall_crossing_genus0(w, point)

    def test_wall_report_format(self):
        text = format_wall_report(W_FIRST, C_PLUS, Q(2), 1)
        assert "I=[1]" in text and "delta: 1" in text and "crossing: 2" in text
