"""Criterion 10 reports a vanishing, negative or off-anchor value,
criterion 6 reports a crossing that raises, criterion 5 reports a
parity gap that the engine breaks and a fitted coefficient that the Fock
route contradicts, and the adjacent-pair search names a wall outside the
arrangement; clear_caches empties every memo, and run_all runs each
criterion on cleared memos and leaves them empty however it ends.

For criteria 10 and 6 the engine is replaced by a cheap stand-in that
satisfies every part of the criterion, so each test plants one bad value
and reads the report.
"""
import random
import sys

import pytest

import leakyhurwitz as lh
from leakyhurwitz import chambers, fock, oracle, verify
from leakyhurwitz.chambers import wall, wall_name
from leakyhurwitz.series import Q

ZERO_AT = ((6,), (3, 1), 2, 1)        # an s=1 point of genus0_grid
NEGATIVE_AT = ((5, 1), (2, 2), 1, 2)  # an s=2 point of genus0_grid


def homogeneous_stand_in(bad=None):
    """max(parts)^(s-1): positive, 1 at s=1, and K^(s-1)-homogeneous."""
    bad = bad or {}

    def value(mu, nu, k, r, s):
        hit = bad.get((mu, nu, k, s))
        if hit is not None:
            return hit
        return Q(max(mu + nu)) ** (s - 1)

    return value


def run_with(monkeypatch, bad=None):
    monkeypatch.setattr(verify, "connected_hurwitz",
                        homogeneous_stand_in(bad))
    return verify.criterion_10()


def test_planted_points_lie_on_the_grid():
    grid = set(verify.genus0_grid())
    assert ZERO_AT in grid and NEGATIVE_AT in grid


def test_stand_in_passes(monkeypatch):
    rep = run_with(monkeypatch)
    assert rep.ok, verify.format_report(rep)
    assert rep.checked == 2190
    assert "homogeneity clean" in rep.detail


def test_zero_and_negative_values_are_listed(monkeypatch):
    rep = run_with(monkeypatch, {ZERO_AT: Q(0), NEGATIVE_AT: Q(-3)})
    assert not rep.ok
    assert rep.failures == [
        "mu=(6,) nu=(3, 1) k=2 s=1: value 0 is not positive",
        "mu=(5, 1) nu=(2, 2) k=1 s=2: value -3 is not positive",
    ]


def test_single_step_value_other_than_one_is_listed(monkeypatch):
    rep = run_with(monkeypatch, {ZERO_AT: Q(2)})
    assert rep.failures == ["mu=(6,) nu=(3, 1) k=2 s=1: value 2 != 1 "
                            "for a single step"]


def test_adjacent_pair_search_names_a_wall_outside_the_arrangement():
    with pytest.raises(ValueError) as err:
        verify.find_adjacent_pair(wall((0,), (0,), 5), 2, 2, 2,
                                  random.Random(1))
    assert str(err.value) == "wall I=[1] J=[1] t=5 has t outside 0..2"


class ZeroPoly:
    def evaluate(self, mu, nu):
        return Q(0)


def test_criterion_6_lists_a_crossing_that_raises(monkeypatch):
    # the series refuses the one-sided walls, as it once did; each of
    # their points becomes a FAIL line naming the wall
    def series(w, point, r, s):
        m, n = len(point.mu), len(point.nu)
        if not (w.I and w.J and len(w.I) < m and len(w.J) < n):
            raise ValueError(f"wall {wall_name(w)} needs nonempty proper "
                             f"index sets")
        return Q(0)

    monkeypatch.setattr(verify, "fit_chamber_polynomial",
                        lambda point, r, s: ZeroPoly())
    monkeypatch.setattr(verify, "_connected_fock", lambda *query: Q(0))
    monkeypatch.setattr(verify, "wall_crossing_series", series)
    monkeypatch.setattr(verify, "wall_crossing_genus0", lambda w, p: Q(0))
    rep = verify.criterion_6()
    assert not rep.ok
    # 37 crossing points and 48 Fock points, two at each of 24 fits
    assert rep.checked == 85
    assert rep.detail == "85 cases, 15 failing (first 10 listed)"
    assert rep.failures[0] == (
        "wall I=[] J=[1] t=1 m=1 n=3 r=2 at LatticePoint(mu=(4,), "
        "nu=(13, 12, 11), k=-16): series failed: wall I=[] J=[1] t=1 "
        "needs nonempty proper index sets")
    # the first three one-sided rows, three points each, then the fourth
    named = [f.split(" m=")[0] for f in rep.failures]
    assert named == (["wall I=[] J=[1] t=1"] * 3
                     + ["wall I=[2, 3] J=[] t=1"] * 3
                     + ["wall I=[2] J=[] t=1"] * 3
                     + ["wall I=[1] J=[1, 2] t=2"])


def test_criterion_5_finds_an_off_parity_constant(monkeypatch):
    # a constant added to every engine value of the degree-1 chamber of
    # (9,3)/(6,2), k=2, r=1, s=2 is a polynomial too, so the fit and its
    # held-out points accept it; the degree-0 term breaks the parity gap
    def shifted(mu, nu, k, r, s):
        value = verify.connected_hurwitz(mu, nu, k, r, s)
        return value + 7 if (len(mu), len(nu), r, s) == (2, 2, 1, 2) else value

    monkeypatch.setattr(chambers, "connected_hurwitz", shifted)
    rep = verify.criterion_5()
    assert not rep.ok
    label = "r=1 s=2 base=(9, 3)/(6, 2)/k=2"
    assert f"{label}: off-parity monomials [(0, 0, 0, 0)]" in rep.failures
    assert all(f.startswith(label) for f in rep.failures)


def test_criterion_5_finds_a_changed_coefficient(monkeypatch):
    # one coefficient of each fit moved by 1: degree and parity still
    # hold, and only the Fock route at the base and doubled base objects
    fit = verify.fit_chamber_polynomial

    def off_by_one(base, r, s):
        poly = fit(base, r, s)
        if not poly.coeffs:
            return poly
        coeffs = dict(poly.coeffs)
        top = max(coeffs)
        coeffs[top] += 1
        return poly._replace(coeffs=coeffs)

    monkeypatch.setattr(verify, "fit_chamber_polynomial", off_by_one)
    rep = verify.criterion_5()
    assert not rep.ok
    # four bases have terms, each failing at both points
    assert len(rep.failures) == 8
    assert all("!= Fock" in f for f in rep.failures)


def test_clear_caches_empties_every_memo(clean_caches):
    # verify has loaded every library module; one walk finds their memos
    library = {(module, name): obj for module, m in tuple(sys.modules.items())
               if module.startswith("leakyhurwitz.")
               for name, obj in vars(m).items() if not name.startswith("__")}
    caches = {obj for obj in library.values() if hasattr(obj, "cache_clear")}
    # numbers._P, the table of partition counts p(n), only grows and can
    # never hold a wrong value, so it is kept
    before = {key: len(obj) for key, obj in library.items()
              if isinstance(obj, (dict, list, set))
              and key != ("leakyhurwitz.numbers", "_P")}
    # both routes, connected and not, a fit, a crossing and a cut-and-join
    # step fill every lru_cache
    for query in [((9, 3), (6, 2), 2, 1, 2), ((24, 16), (20, 12), 4, 1, 2)]:
        for connected in (True, False):
            lh.evaluate(lh.make_query(*query, connected))
    base = lh.lattice_point((9, 3), (6, 2), 2)
    lh.fit_chamber_polynomial(base, 1, 2)
    lh.wall_crossing_series(lh.wall((0,), (0,), 1), base, 1, 2)
    lh.verify_cut_and_join((2, 1), 1, 1, 2)
    assert all(c.cache_info().currsize for c in caches)
    assert fock._MEMO and oracle._MOVES
    verify.clear_caches()
    assert not any(c.cache_info().currsize for c in caches)
    assert not fock._MEMO and not oracle._MOVES
    assert {key: len(library[key]) for key in before} == before


def test_run_all_checks_first_then_runs_each_on_cleared_memos(
        monkeypatch, clean_caches):
    def criterion():
        fock._MEMO["planted"] = len(fock._MEMO)
        return fock._MEMO["planted"]

    monkeypatch.setattr(verify, "ALL_CRITERIA", {1: criterion, 2: criterion})
    with pytest.raises(ValueError, match=r"^unknown criteria \[0, 11\]$"):
        verify.run_all([1, 0, 11])
    assert not fock._MEMO
    fock._MEMO["planted"] = 5
    # each report comes as its criterion ends, on the memos it left
    reports = verify.run_all([1, 2])
    assert next(reports) == 0 and fock._MEMO == {"planted": 0}
    assert list(reports) == [0] and not fock._MEMO


def memo_sizes():
    """len(fock._MEMO) and the summed size of every library lru_cache."""
    caches = {f for name, m in tuple(sys.modules.items())
              if name.startswith("leakyhurwitz.")
              for f in vars(m).values() if hasattr(f, "cache_clear")}
    return len(fock._MEMO), sum(c.cache_info().currsize for c in caches)


def test_run_all_clears_after_a_criterion_that_raises(monkeypatch,
                                                      clean_caches):
    first = verify.ALL_CRITERIA[1]

    def raising():
        first()
        assert all(memo_sizes())
        raise RuntimeError("planted")

    monkeypatch.setattr(verify, "ALL_CRITERIA", {1: raising})
    with pytest.raises(RuntimeError, match="planted"):
        list(verify.run_all([1]))
    assert memo_sizes() == (0, 0)


def test_run_all_clears_when_closed_after_one_criterion(clean_caches):
    reports = verify.run_all([1, 2])
    assert next(reports).ok and all(memo_sizes())
    reports.close()
    assert memo_sizes() == (0, 0)
