"""Number-level API tests: disconnected assembly, one-part forms,
torus-corrected numbers, cache, and query plumbing."""
import json
import os
import pathlib
import random
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from leakyhurwitz.chambers import lattice_point, wall
from leakyhurwitz.fock import canonical_partition, connected_hurwitz
from leakyhurwitz.numbers import (
    HurwitzCache,
    _assembly,
    _fock_cheaper,
    _splits,
    aut_factor,
    cmr_leaky_r1,
    connected_cached,
    disconnected_hurwitz,
    evaluate,
    genus_of,
    make_query,
    one_part_closed_genus0,
)
from leakyhurwitz.oracle import (
    VACUUM,
    apply_alpha,
    apply_insertion_coeff,
    oracle_disconnected,
)
from leakyhurwitz.series import Q, QZERO


def partitions_of(total, cap=None):
    if total == 0:
        yield ()
        return
    cap = total if cap is None else min(cap, total)
    for first in range(cap, 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


class TestPlumbing:
    def test_canonical_partition(self):
        assert canonical_partition([1, 3, 2]) == (3, 2, 1)
        with pytest.raises(ValueError):
            canonical_partition([2, 0])
        with pytest.raises(TypeError):
            canonical_partition([5.7, 2])

    def test_aut_factor(self):
        assert aut_factor(()) == 1
        assert aut_factor((3, 1)) == 1
        assert aut_factor((2, 2, 2, 1, 1)) == 12

    def test_splits_cover_every_labeled_subset(self):
        for total in range(11):
            for p in partitions_of(total):
                splits = list(_splits(p))
                for taken, rest, ways in splits:
                    assert list(taken) == sorted(taken, reverse=True)
                    assert list(rest) == sorted(rest, reverse=True)
                    assert tuple(sorted(taken + rest, reverse=True)) == p
                    assert ways >= 1
                assert sum(ways for _, _, ways in splits) == 2 ** len(p)
        assert list(_splits((2, 2, 1))) == [
            ((), (2, 2, 1), 1), ((1,), (2, 2), 1),
            ((2,), (2, 1), 2), ((2, 1), (2,), 2),
            ((2, 2), (1,), 1), ((2, 2, 1), (), 1)]

    def test_genus(self):
        assert genus_of(make_query((5,), (1, 1, 1), 1, 1, 2)) == 0
        assert genus_of(make_query((4,), (4,), 0, 2, 2)) == 2
        assert genus_of(make_query((2,), (1,), 1, 1, 1)) == Q(1, 2)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            make_query((1,), (1,), 0, 0, 1)
        with pytest.raises(ValueError):
            make_query((1,), (1,), 0, 1, -2)

    @pytest.mark.parametrize("fn,args", [
        (make_query, ((5,), (1, 1, 1), 1, 1.5, 2)),
        (connected_hurwitz, ((5,), (1, 1, 1), 1, 1.5, 2)),
        (disconnected_hurwitz, ((5,), (1, 1, 1), 1, 1.5, 2)),
        (disconnected_hurwitz, ((5,), (2,), 1.5, 1, 2)),
        (make_query, ((5.5,), (1, 1, 1), 1, 1, 2)),
        (cmr_leaky_r1, ((5,), (1, 1, 1), 1, 2.0)),
        (lattice_point, ((9, 3), (6, 2), 2.7)),
        (wall, ((0,), (0,), 1.5)),
    ])
    def test_non_integer_inputs_rejected(self, fn, args):
        # a float is never truncated to the integer query next to it
        with pytest.raises(TypeError):
            fn(*args)


class TestDisconnected:
    def test_identity_covers(self):
        assert disconnected_hurwitz((2, 1), (2, 1), 5, 1, 0) == Q(1, 2)
        assert disconnected_hurwitz((2, 2), (2, 2), 0, 1, 0) == Q(1, 2)
        assert disconnected_hurwitz((1, 1, 1), (1, 1, 1), 0, 2, 0) == 6

    def test_single_step_matches_oracle(self):
        q = ((2, 1), (1, 1, 1), 0, 1, 1)
        assert disconnected_hurwitz(*q) == oracle_disconnected(*q)

    def test_unbalanced_is_zero(self):
        assert disconnected_hurwitz((3,), (1, 1), 2, 1, 1) == 0

    def test_empty_empty(self):
        assert disconnected_hurwitz((), (), 0, 1, 0) == 1
        assert disconnected_hurwitz((), (), 0, 1, 2) == 0

    def test_oracle_agreement_random(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            a = rng.randint(0, 6)
            k = rng.randint(-3, 3)
            s = rng.randint(0, 3)
            r = rng.randint(1, 2)
            b = a - s * k
            if b < 0 or b > 9:
                continue
            mu = rng.choice(list(partitions_of(a)))
            nu = rng.choice(list(partitions_of(b)))
            assert (disconnected_hurwitz(mu, nu, k, r, s)
                    == oracle_disconnected(mu, nu, k, r, s)), (mu, nu, k, r, s)
            checked += 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_routes_duality_and_parity_above_the_oracle_sweep(self, data):
        # balanced queries just outside criterion 3's box (|mu| <= 8,
        # s <= 3): |mu| from 9 to 12 at s <= 3, or s = 4, |nu| <= 12
        s = data.draw(st.integers(0, 4))
        a = data.draw(st.integers(9 if s < 4 else 0, 12))
        k = (data.draw(st.integers(max(-3, -((12 - a) // s)), min(3, a // s)))
             if s else data.draw(st.integers(-3, 3)))
        r = data.draw(st.integers(1, 2))
        mu = data.draw(st.sampled_from(list(partitions_of(a))))
        nu = data.draw(st.sampled_from(list(partitions_of(a - s * k))))
        value = disconnected_hurwitz(mu, nu, k, r, s)
        assert oracle_disconnected(mu, nu, k, r, s) == value
        assert disconnected_hurwitz(nu, mu, -k, r, s) == value
        assert oracle_disconnected(nu, mu, -k, r, s) == value
        if (r * s - len(mu) - len(nu)) % 2:
            assert value == 0

    @pytest.mark.parametrize("mu,nu,k,r,s,value", [
        ((4, 3), (3, 2, 1, 1), 0, 1, 6, Q(6513860, 3)),
        ((8, 6, 4), (6, 5, 3), 1, 2, 4, Q(741905438, 27)),
    ])
    def test_many_insertions_match_the_oracle(self, mu, nu, k, r, s, value):
        # many identical insertions: the relabelled memo makes these cheap
        assert disconnected_hurwitz(mu, nu, k, r, s) == value
        assert oracle_disconnected(mu, nu, k, r, s) == value

    def test_shared_memo_does_not_depend_on_query_order(self):
        # the |mu| <= 3 sweep box, in which a memo key missing r would
        # serve one query's sub-assemblies to another
        box = [(mu, nu, k, r, s) for a in range(4) for s in range(4)
               for k in range(-3, 4) if a - s * k >= 0 for r in (1, 2)
               for nu in partitions_of(a - s * k) for mu in partitions_of(a)]
        forward = [disconnected_hurwitz(*q) for q in box]
        _assembly.cache_clear()
        connected_cached.cache_clear()
        backward = [disconnected_hurwitz(*q) for q in reversed(box)]
        assert forward == backward[::-1]

    def test_chamber_interior_equals_connected(self):
        # one-part mu with k>0: every proper block is unbalanced
        for (mu, nu, k, r, s) in [((5,), (1, 1, 1), 1, 1, 2),
                                  ((7,), (1, 1, 1, 1), 1, 1, 3),
                                  ((6,), (2, 2), 2, 1, 1)]:
            assert (disconnected_hurwitz(mu, nu, k, r, s)
                    == connected_hurwitz(mu, nu, k, r, s))

    def test_disconnected_splits(self):
        # ((2,2),(2),k=2,s=1): one genuine split plus the connected part
        assert disconnected_hurwitz((2, 2), (2,), 2, 1, 1) == Q(9, 8)
        assert connected_hurwitz((2, 2), (2,), 2, 1, 1) == 1


class TestOnePart:
    # a connected query with one mu part and k >= 0 equals the
    # disconnected one, so evaluate may answer it on the Fock route

    @staticmethod
    def value(mu, nu, k, r, s):
        return evaluate(make_query(mu, nu, k, r, s)).value

    def test_anchor_values(self):
        assert self.value((5,), (1, 1, 1), 1, 1, 2) == 9
        assert self.value((4,), (2, 1), 1, 1, 1) == 1
        assert self.value((7,), (1, 1, 1, 1), 1, 1, 3) == 234

    @pytest.mark.parametrize("r,s", [(1, -1), (0, 1), (-2, 0)])
    def test_bad_r_or_s_rejected(self, r, s):
        with pytest.raises(ValueError, match="need r >= 1 and s >= 0"):
            make_query((2 - s,), (3,), 1, r, s)

    def test_imbalance_and_guards(self):
        assert self.value((5,), (1, 1), 1, 1, 1) == 0
        # k < 0: a block of nu parts alone can balance, so the connected
        # number differs from the disconnected one
        q = make_query((1,), (3, 1, 1), -2, 2, 2)
        assert evaluate(q).value == Q(31, 12)
        assert evaluate(q._replace(connected=False)).value == Q(43, 16)

    def test_no_insertions(self):
        assert self.value((4,), (4,), 1, 1, 0) == Q(1, 4)
        assert self.value((4,), (2, 2), 1, 1, 0) == 0

    def test_matches_engine_grid(self):
        for d in range(1, 9):
            for k in (1, 2, 3):
                for r in (1, 2):
                    for s in range(4):
                        rest = d - s * k
                        if rest < 1:
                            continue
                        for nu in partitions_of(rest):
                            if len(nu) > 4:
                                continue
                            assert (self.value((d,), nu, k, r, s)
                                    == connected_hurwitz((d,), nu, k, r, s)), \
                                (d, nu, k, r, s)

    def test_closed_genus0(self):
        assert one_part_closed_genus0(5, 3, 1) == 9
        assert one_part_closed_genus0(7, 4, 1) == 234
        assert one_part_closed_genus0(5, 2, 12345) == 1
        assert one_part_closed_genus0(5, 4, 1) == 108
        with pytest.raises(ValueError):
            one_part_closed_genus0(5, 1, 1)
        # (1)/(5,1,1) at k=-3 lies outside the form's chamber (engine: 7)
        assert connected_hurwitz((1,), (5, 1, 1), -3, 1, 2) == 7
        with pytest.raises(ValueError):
            one_part_closed_genus0(1, 3, -3)
        with pytest.raises(ValueError):
            one_part_closed_genus0(5, 3, 0)
        for d in (-3, 0):
            with pytest.raises(ValueError):
                one_part_closed_genus0(d, 4, 1)
        with pytest.raises(TypeError):
            one_part_closed_genus0(5.5, 3, 1)
        with pytest.raises(TypeError):
            one_part_closed_genus0(5, 3.0, 1)
        with pytest.raises(TypeError):
            one_part_closed_genus0(5, 3, 1.5)

    def test_closed_equals_series_for_every_shape(self):
        for d in (5, 7, 9):
            for k in (1, 2):
                for m in (2, 3, 4):
                    rest = d - (m - 1) * k
                    if rest < m:
                        continue
                    closed = one_part_closed_genus0(d, m, k)
                    for nu in partitions_of(rest):
                        if len(nu) != m:
                            continue
                        assert self.value(
                            (d,), nu, k, 1, m - 1) == closed, (d, nu, k)


# -- independent triple-boson route for the torus correction -------------

def apply_triple_boson(comb, m, window, reach):
    """(1/6) sum over nonzero ordered (a,b,c) with a+b+c = m of the
    normal-ordered boson triple, applied to a state combination.

    Entries beyond reach move more energy than any reachable state
    holds, so their terms annihilate everything and are skipped.
    """
    out = {}
    for a in range(-reach, reach + 1):
        if a == 0:
            continue
        for b in range(-reach, reach + 1):
            if b == 0:
                continue
            c = m - a - b
            if c == 0 or abs(c) > reach:
                continue
            cur = comb
            for n in reversed(sorted((a, b, c))):
                cur = apply_alpha(cur, n, window)
                if not cur:
                    break
            for state, amp in cur.items():
                val = out.get(state, QZERO) + amp / Q(6)
                if val == 0:
                    out.pop(state, None)
                else:
                    out[state] = val
    return out


def cmr_oracle(mu, nu, k, s):
    """Torus-corrected number straight from the triple-boson operator."""
    energy = max(sum(mu), sum(nu))
    reach = energy + abs(k) + 2
    window = 2 * (energy + s * (abs(k) + 2)) + 8
    ket = {VACUUM: Q(1)}
    for p in reversed(nu):
        ket = apply_alpha(ket, -p, window)
    for _ in range(s):
        ket = apply_triple_boson(ket, -k, window, reach)
    for p in reversed(mu):
        ket = apply_alpha(ket, p, window)
    value = ket.get(VACUUM, QZERO)
    denom = Q(1)
    for p in tuple(mu) + tuple(nu):
        denom *= p
    return value / denom


class TestTorusCorrection:
    def test_insertion_splits_into_triple_plus_boson(self):
        # [z^2] of the generating operator = triple-boson part plus
        # (k^2-1)/24 times the plain boson, checked as operators on states
        rng = random.Random(31)
        window = 40
        for k in (1, 2, 3, -2):
            c_k = Q(k * k - 1, 24)
            for _ in range(6):
                parts = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
                state = {VACUUM: Q(1)}
                for p in parts:
                    state = apply_alpha(state, -p, window)
                via_insertion = apply_insertion_coeff(state, k, 2, window)
                via_triple = apply_triple_boson(
                    state, -k, window, sum(parts) + abs(k) + 2)
                corr = apply_alpha(state, -k, window)
                for st, amp in corr.items():
                    val = via_triple.get(st, QZERO) + c_k * amp
                    if val == 0:
                        via_triple.pop(st, None)
                    else:
                        via_triple[st] = val
                assert via_triple == via_insertion, (k, parts)

    def test_matches_triple_boson_oracle_with_real_correction(self):
        # genus-one cases at k in {2,3}: the correction term is nonzero
        cases = [((6,), (2,), 2, 2), ((5,), (1,), 2, 2), ((7,), (1,), 3, 2),
                 ((2,), (6,), -2, 2)]
        for mu, nu, k, s in cases:
            got = cmr_leaky_r1(mu, nu, k, s)
            want = cmr_oracle(mu, nu, k, s)
            assert got == want, (mu, nu, k, s, got, want)

    def test_correction_changes_higher_genus_values(self):
        mu, nu, k, s = (6,), (2,), 2, 2
        assert (cmr_leaky_r1(mu, nu, k, s)
                != disconnected_hurwitz(mu, nu, k, 1, s))

    def test_k_plus_minus_one_equals_completed(self):
        cases = [((3,), (1, 1), 1, 1), ((2, 2), (1, 1), 1, 2),
                 ((1, 1), (3,), -1, 1), ((4,), (2,), 1, 2),
                 ((4, 3), (3, 2), 1, 2)]
        for mu, nu, k, s in cases:
            assert (cmr_leaky_r1(mu, nu, k, s)
                    == disconnected_hurwitz(mu, nu, k, 1, s)), (mu, nu, k, s)

    def test_genus_zero_unaffected(self):
        for (d, nu, k) in [(6, (2, 2), 2), (9, (3, 3), 3), (8, (2, 2), 2)]:
            s = len(nu) - 1
            if d != sum(nu) + s * k:
                continue
            assert (cmr_leaky_r1((d,), nu, k, s)
                    == disconnected_hurwitz((d,), nu, k, 1, s)), (d, nu, k)

    def test_aut_flag(self):
        raw = cmr_leaky_r1((2, 2), (1, 1), 1, 2)
        scaled = cmr_leaky_r1((2, 2), (1, 1), 1, 2, aut=True)
        assert raw == 4 * scaled

    def test_unbalanced(self):
        assert cmr_leaky_r1((3,), (1,), 1, 1) == 0


class TestRoute:
    GOLDEN = pathlib.Path(__file__).parent / "golden" / "table_grid.json"

    @pytest.mark.parametrize("n", range(3, 8))
    def test_one_part_ladder_rungs_go_to_fock(self, n):
        q = make_query((2 * n - 1,), (1,) * n, 1, 1, n - 1)
        assert _fock_cheaper(q)
        res = evaluate(q)
        assert res.method == "fock"
        assert res.value == one_part_closed_genus0(2 * n - 1, n, 1)

    def test_golden_grid_rows_stay_on_the_engine(self):
        rows = [json.loads(line) for line in
                self.GOLDEN.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 10
        for rec in rows:
            q = make_query(rec["mu"], rec["nu"], rec["k"], rec["r"],
                           rec["s"], rec["connected"])
            assert not _fock_cheaper(q), rec

    @pytest.mark.parametrize("mu,nu,k", [
        ((12, 8), (10, 6), 2),
        ((20, 12), (16, 10), 3),
    ])
    @pytest.mark.parametrize("connected", [True, False])
    def test_large_parts_at_two_insertions_stay_on_the_engine(
            self, mu, nu, k, connected):
        res = evaluate(make_query(mu, nu, k, 1, 2, connected))
        assert res.method == "engine"
        if not connected:
            assert res.value == oracle_disconnected(mu, nu, k, 1, 2)

    def test_one_nu_part_with_positive_k_stays_connected_on_the_engine(self):
        q = make_query((3, 1, 1), (1,), 2, 2, 2)
        assert _fock_cheaper(q._replace(connected=False))
        assert not _fock_cheaper(q)
        assert evaluate(q).value == Q(31, 12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nu=st.lists(st.integers(1, 4), max_size=3),
           k=st.integers(-2, 3), r=st.integers(1, 2), s=st.integers(0, 4),
           cuts=st.sets(st.integers(1, 7), max_size=3),
           connected=st.booleans())
    def test_evaluate_keeps_the_engine_value(self, nu, k, r, s, cuts,
                                             connected):
        # mu is the composition of |nu| + s*k cut at the drawn points
        total = sum(nu) + s * k
        assume(total >= 0)
        ends = [0] + sorted(c for c in cuts if c < total) + [total]
        mu = [b - a for a, b in zip(ends, ends[1:]) if b > a]
        q = make_query(mu, nu, k, r, s, connected)
        res = evaluate(q)
        engine = connected_hurwitz if connected else disconnected_hurwitz
        assert res.value == engine(*q[:5])
        if connected and len(q.mu) > 1 and len(q.nu) > 1:
            assert res.method == "engine"


class TestCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = HurwitzCache(path)
        q = make_query((5,), (2, 2), 1, 1, 1)
        res = evaluate(q, cache)
        assert res.method == "engine"
        assert res.value == 1
        reloaded = HurwitzCache(path)
        assert reloaded.lookup(q) == res.value

    def test_torn_last_line_is_skipped_and_the_next_append_is_clean(
            self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = HurwitzCache(str(path))
        queries = [make_query((5,), (2, 2), 1, 1, 1),
                   make_query((2, 2), (2,), 2, 1, 1, connected=False),
                   make_query((3,), (1, 1), 1, 1, 1)]
        values = [evaluate(q, cache).value for q in queries]
        data = path.read_bytes()
        assert data.count(b"\n") == 3 and data.endswith(b"\n")
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[:last + (len(data) - last) // 2])

        torn = HurwitzCache(str(path))
        assert torn.skipped == 1
        assert len(torn) == 2
        assert [torn.lookup(q) for q in queries] == values[:2] + [None]

        assert evaluate(queries[2], torn).method == "engine"
        reloaded = HurwitzCache(str(path))
        assert reloaded.skipped == 1
        assert [reloaded.lookup(q) for q in queries] == values
        assert path.read_bytes().count(b"\n") == 4

    def test_loaded_keys_are_canonical(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(
            {"mu": [2, 5], "nu": [3, 4], "k": 0, "r": 1, "s": 1,
             "connected": True, "num": "7", "den": "2"}) + "\n")
        cache = HurwitzCache(str(path))
        assert cache.lookup(make_query((5, 2), (4, 3), 0, 1, 1)) == Q(7, 2)

    @pytest.mark.parametrize("bad", [
        pytest.param({"mu": [3, 0]}, id="mu0"),
        pytest.param({"mu": [5.7]}, id="mu1"),
        pytest.param({"r": 0}, id="r0"),
        pytest.param({"r": 1.5}, id="r1.5"),
        pytest.param({"s": -1}, id="s-1"),
        pytest.param({"k": 1.5}, id="k1.5"),
    ])
    def test_record_with_a_bad_part_is_skipped(self, tmp_path, bad):
        path = tmp_path / "cache.jsonl"
        rec = {"mu": [3], "nu": [3], "k": 0, "r": 1, "s": 1,
               "connected": True, "num": "1", "den": "1"}
        path.write_text(json.dumps({**rec, **bad}) + "\n")
        cache = HurwitzCache(str(path))
        assert cache.skipped == 1
        assert len(cache) == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_round_trip_property(self, data):
        # each stored query comes back after a reload, as does its dual
        # (nu, mu, -k); some records are written by hand with their parts
        # in a shuffled order, as another writer might leave them
        part_lists = st.lists(st.integers(1, 6), max_size=4)
        queries = data.draw(st.lists(st.builds(
            make_query, part_lists, part_lists, st.integers(-4, 4),
            st.integers(1, 3), st.integers(0, 4), st.booleans()),
            min_size=1, max_size=8,
            unique_by=lambda q: min(HurwitzCache._key(q),
                                    HurwitzCache._dual_key(q))))
        values = data.draw(st.lists(st.fractions(), min_size=len(queries),
                                    max_size=len(queries)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            cache = HurwitzCache(path)
            for q, value in zip(queries, values):
                if data.draw(st.booleans()):
                    cache.store(q, value)
                    continue
                rec = {"mu": data.draw(st.permutations(q.mu)),
                       "nu": data.draw(st.permutations(q.nu)),
                       "k": q.k, "r": q.r, "s": q.s,
                       "connected": q.connected,
                       "num": str(value.numerator),
                       "den": str(value.denominator)}
                with open(path, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
            reloaded = HurwitzCache(path)
        assert reloaded.skipped == 0
        assert len(reloaded) == len(queries)
        for q, value in zip(queries, values):
            dual = make_query(q.nu, q.mu, -q.k, q.r, q.s, q.connected)
            assert reloaded.lookup(q) == value
            assert reloaded.lookup(dual) == value

    def test_duality_lookup(self):
        cache = HurwitzCache()
        q = make_query((5,), (2, 2), 1, 1, 1)
        evaluate(q, cache)
        dual = make_query((2, 2), (5,), -1, 1, 1)
        assert cache.lookup(dual) == 1
        assert evaluate(dual, cache).method == "cache"

    def test_disconnected_method_tag(self):
        q = make_query((2, 2), (2,), 2, 1, 1, connected=False)
        res = evaluate(q)
        assert res.method == "engine"
        assert res.value == Q(9, 8)
