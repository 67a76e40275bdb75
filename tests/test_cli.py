"""Command-line interface: records, formats, exit codes, caching."""
import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz import cli, numbers
from leakyhurwitz.cli import (balanced_triples, build_parser, emit_records,
                              main)
from leakyhurwitz.numbers import (HurwitzCache, HurwitzResult,
                                  bounded_profiles, evaluate, make_query)

ONE_PART = ["--mu", "5", "--nu", "1,1,1", "--k", "1", "--r", "1", "--s", "2"]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def strip_ms(text):
    return re.sub(r'("ms":|ms=)[0-9.]+', r"\g<1>0", text)


def strip_csv_ms(text):
    return re.sub(r",[0-9.]+$", ",0", text, flags=re.M)


class TestCompute:
    def test_connected_one_part_value(self, capsys):
        assert main(["compute", *ONE_PART, "--connected"]) == 0
        out = capsys.readouterr().out
        assert "= 9/1" in out and "connected" in out

    def test_unbalanced_query_is_zero(self, capsys):
        code = main(["compute", "--mu", "3", "--nu", "3", "--k", "1",
                     "--r", "1", "--s", "1"])
        assert code == 0
        assert "= 0/1" in capsys.readouterr().out

    def test_json_record_schema(self, capsys):
        assert main(["compute", *ONE_PART, "--connected",
                     "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert list(rec) == ["mu", "nu", "k", "r", "s", "connected",
                             "num", "den", "genus", "method", "ms"]
        assert rec["mu"] == [5] and rec["nu"] == [1, 1, 1]
        assert (rec["num"], rec["den"], rec["genus"]) == ("9", "1", "0")
        assert rec["method"] == "fock"

    def test_csv_header_and_row(self, capsys):
        assert main(["compute", *ONE_PART, "--connected",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mu,nu,k,r,s,connected,num,den,genus,method,ms"
        assert lines[1].startswith("5,1 1 1,1,1,2,true,9,1,0,fock,")

    def test_bad_part_reports_flag_and_position(self, capsys):
        code = main(["compute", "--mu", "5", "--nu", "1,1,x",
                     "--k", "1", "--r", "1", "--s", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--nu" in err and "position 3" in err

    def test_s_auto_from_genus(self, capsys):
        code = main(["compute", "--mu", "5", "--nu", "1,1,1", "--k", "1",
                     "--r", "1", "--s", "auto", "--genus", "0",
                     "--connected"])
        assert code == 0
        out = capsys.readouterr().out
        assert "s=2" in out and "= 9/1" in out

    def test_s_auto_needs_genus(self, capsys):
        code = main(["compute", "--mu", "5", "--nu", "1,1,1", "--k", "1",
                     "--r", "1", "--s", "auto"])
        assert code == 2
        assert "--genus" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compute", "--mu", "5", "--nu", "1,1,1", "--k", "1", "--s", "2",
         "--connected", "--genus", "3"],
        ["chamber-fit", "--mu", "9,3", "--nu", "6,2", "--k", "2", "--s", "2",
         "--genus", "5"],
    ])
    def test_genus_beside_an_explicit_s_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: --genus")

    def test_s_auto_rejects_non_multiple(self, capsys):
        # 2g-2+m+n = 3 is not a multiple of r=2
        code = main(["compute", "--mu", "5", "--nu", "1,1", "--k", "1",
                     "--r", "2", "--s", "auto", "--genus", "1"])
        assert code == 2
        assert "--s auto" in capsys.readouterr().err

    # --caps now belongs to tree-dump alone, which checks it the same way
    def test_caps_below_extraction_degree_rejected(self, capsys):
        code = main(["tree-dump", *ONE_PART, "--caps", "1,1"])
        assert code == 2
        assert "--caps" in capsys.readouterr().err

    def test_blank_caps_is_an_empty_list(self, capsys):
        assert main(["tree-dump", *ONE_PART, "--caps", ""]) == 2
        assert capsys.readouterr().err == (
            "usage error: --caps: need one cap per insertion (2), got 0\n")

    def test_cache_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cache.jsonl")
        assert main(["compute", *ONE_PART, "--connected",
                     "--cache", path, "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["method"] == "fock"
        assert main(["compute", *ONE_PART, "--connected",
                     "--cache", path, "--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["method"] == "cache"
        assert (second["num"], second["den"]) == ("9", "1")
        stored = [json.loads(line) for line in
                  open(path, encoding="utf-8")]
        assert len(stored) == 1 and stored[0]["num"] == "9"

    def test_cache_default_from_environment(self, tmp_path, capsys,
                                            monkeypatch):
        path = str(tmp_path / "env-cache.jsonl")
        monkeypatch.setenv("LEAKYHURWITZ_CACHE", path)
        assert main(["compute", *ONE_PART, "--connected",
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["compute", *ONE_PART, "--connected",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "cache"

    def test_read_only_cache_serves_lookups_and_refuses_stores(
            self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "cache.jsonl")
        assert main(["compute", *ONE_PART, "--connected",
                     "--cache", path]) == 0
        capsys.readouterr()

        def read_only(file, mode="r", *args, **kwargs):
            if "r" not in mode:
                raise PermissionError(13, "Permission denied", file)
            return open(file, mode, *args, **kwargs)

        # a chmod would not stop a superuser, so the denial is simulated
        monkeypatch.setattr("leakyhurwitz.numbers.open", read_only,
                            raising=False)
        assert main(["compute", *ONE_PART, "--connected", "--cache", path,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "cache"
        assert main(["compute", *ONE_PART, "--cache", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "usage error: --cache: cannot write cache file ")
        assert captured.out == ""

    def test_unusable_cache_from_environment_fails_before_any_work(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEAKYHURWITZ_CACHE", str(tmp_path))

        def fail(*args):
            raise AssertionError("evaluated before the cache was opened")

        monkeypatch.setattr("leakyhurwitz.cli.evaluate", fail)
        assert main(["compute", *ONE_PART, "--connected"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: $LEAKYHURWITZ_CACHE: ")


class TestTable:
    GRID = ["table", "--max-part", "3", "--max-len", "1", "--k-min", "-1",
            "--k-max", "1", "--r", "1", "--s", "1", "--connected"]

    def test_balanced_grid_rows(self, capsys):
        assert main([*self.GRID, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mu,nu,k,r,s,connected,num,den,genus,method,ms"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        for row in rows:
            mu = [int(p) for p in row[0].split()] if row[0] else []
            nu = [int(p) for p in row[1].split()] if row[1] else []
            assert sum(mu) == sum(nu) + int(row[4]) * int(row[2])

    def test_records_are_byte_stable(self, capsys):
        assert main([*self.GRID, "--format", "json"]) == 0
        first = strip_ms(capsys.readouterr().out)
        assert main([*self.GRID, "--format", "json"]) == 0
        assert strip_ms(capsys.readouterr().out) == first
        assert first == (GOLDEN / "table_grid.json").read_text(
            encoding="utf-8")

    @pytest.mark.parametrize("fmt,name,strip", [
        ("csv", "table_grid.csv", strip_csv_ms),
        ("plain", "table_grid.txt", strip_ms),
    ])
    def test_grid_matches_the_golden_text(self, capsys, fmt, name, strip):
        assert main([*self.GRID, "--format", fmt]) == 0
        assert strip(capsys.readouterr().out) == (GOLDEN / name).read_text(
            encoding="utf-8")

    def test_box_and_its_cache_file_match_the_golden(self, tmp_path, capsys):
        # disconnected, with negative k, the empty profile, half-integral
        # genus and rows served by their dual's cache record
        path = tmp_path / "cache.jsonl"
        assert main(["table", "--max-part", "3", "--max-len", "2",
                     "--k-min", "-2", "--k-max", "2", "--s", "2",
                     "--format", "json", "--cache", str(path)]) == 0
        assert strip_ms(capsys.readouterr().out) == (
            GOLDEN / "table_box_s2.json").read_text(encoding="utf-8")
        assert path.read_bytes() == (
            GOLDEN / "table_box_s2_cache.jsonl").read_bytes()

    def test_without_a_cache_a_dual_row_reuses_its_value(
            self, capsys, monkeypatch):
        # one route call per row whose dual (nu, mu, -k) did not come
        # earlier; a reused row still names its own route
        monkeypatch.delenv("LEAKYHURWITZ_CACHE", raising=False)
        calls = []
        for name in ("oracle_disconnected", "disconnected_hurwitz"):
            route = getattr(numbers, name)
            monkeypatch.setattr(numbers, name, lambda *q, route=route: (
                calls.append(q), route(*q))[1])
        assert main(["table", "--max-part", "3", "--max-len", "2",
                     "--k-min", "-2", "--k-max", "2", "--r", "1", "--s", "2",
                     "--format", "json"]) == 0
        routed = len(calls)
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        seen, fresh = set(), 0
        for row in rows:
            q = make_query(row["mu"], row["nu"], row["k"], 1, 2, False)
            fresh += (q.nu, q.mu, -q.k) not in seen
            seen.add((q.mu, q.nu, q.k))
            assert row["method"] == ("fock" if numbers._fock_cheaper(q)
                                     else "engine")
            value = evaluate(q).value
            assert (row["num"], row["den"]) == (str(value.numerator),
                                                str(value.denominator))
        assert {row["method"] for row in rows} == {"fock", "engine"}
        assert routed == fresh < len(rows)

    @pytest.mark.parametrize("flags", [
        ["--s", "3"], ["--connected", "--r", "2", "--s", "2"]])
    def test_every_row_is_a_checked_query(self, monkeypatch, capsys, flags):
        seen = []
        monkeypatch.setattr(cli, "evaluate", lambda q, cache: (
            seen.append(q), evaluate(q, cache))[1])
        assert main(["table", "--max-part", "3", "--max-len", "3",
                     "--k-min", "-2", "--k-max", "2", *flags]) == 0
        assert len(seen) == len(capsys.readouterr().out.splitlines()) > 0
        for q in seen:
            assert repr(q) == repr(make_query(*q))

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_balanced_triples_match_the_full_scan(self, s):
        profiles = [p for length in range(4)
                    for p in reversed(bounded_profiles(4, length))]
        ks = range(-3, 3)
        scan = [(mu, nu, k) for mu in profiles for nu in profiles
                for k in ks if sum(mu) == sum(nu) + s * k]
        assert list(balanced_triples(profiles, ks, s)) == scan
        assert any(k < 0 for _, _, k in scan)


def reference_record(res):
    """A result's record as the json and csv modules write it, with the
    genus from genus_of."""
    q = res.query
    return {"mu": list(q.mu), "nu": list(q.nu), "k": q.k, "r": q.r,
            "s": q.s, "connected": q.connected,
            "num": str(res.value.numerator),
            "den": str(res.value.denominator),
            "genus": str(numbers.genus_of(q)), "method": res.method,
            "ms": round(res.ms, 3)}


WRITER_PARTS = st.lists(st.integers(1, 40), max_size=5)
RESULTS = st.builds(
    lambda q, num, den, method, ms: HurwitzResult(Q(num, den), q, method, ms),
    st.builds(make_query, WRITER_PARTS, WRITER_PARTS, st.integers(-50, 50),
              st.integers(1, 5), st.integers(0, 6), st.booleans()),
    st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40),
    st.sampled_from(["cache", "fock", "engine"]),
    st.one_of(st.sampled_from([0.0, 0.001, 12345.678]), st.floats(0, 1e7)))


class TestWriters:
    """The row and cache writers give the json and csv modules' bytes."""

    @settings(max_examples=200, deadline=None)
    @given(RESULTS)
    def test_records_are_the_reference_bytes(self, res):
        rec = reference_record(res)
        want = {
            "json": json.dumps(rec, separators=(",", ":")) + "\n",
            "plain": (
                f"h(mu={rec['mu']}, nu={rec['nu']}, k={rec['k']}, "
                f"r={rec['r']}, s={rec['s']}, "
                f"{'connected' if rec['connected'] else 'disconnected'}) = "
                f"{rec['num']}/{rec['den']}  [method={rec['method']} "
                f"genus={rec['genus']} ms={rec['ms']}]\n"),
        }
        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows([
            ["mu", "nu", "k", "r", "s", "connected", "num", "den", "genus",
             "method", "ms"],
            [" ".join(map(str, rec["mu"])), " ".join(map(str, rec["nu"])),
             rec["k"], rec["r"], rec["s"],
             "true" if rec["connected"] else "false", rec["num"],
             rec["den"], rec["genus"], rec["method"], rec["ms"]]])
        want["csv"] = rows.getvalue()
        for fmt, text in want.items():
            out = io.StringIO()
            emit_records([res], fmt, out)
            assert out.getvalue() == text

    @settings(max_examples=200, deadline=None)
    @given(RESULTS)
    def test_cache_line_is_the_reference_bytes_and_loads(self, res):
        q = res.query
        rec = dict(q._asdict(), num=str(res.value.numerator),
                   den=str(res.value.denominator))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            cache = HurwitzCache(path)
            cache.store(q, res.value)
            cache.close()
            with open(path, "rb") as fh:
                assert fh.read() == (json.dumps(rec, sort_keys=True)
                                     + "\n").encode()
            reloaded = HurwitzCache(path)
        assert reloaded.skipped == 0
        assert reloaded.lookup(q) == res.value


class TestChamberFit:
    BASE = ["chamber-fit", "--mu", "9,3", "--nu", "6,2", "--k", "2",
            "--r", "1", "--s", "2"]

    def test_plain_report_lists_the_linear_terms(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "degree bound: 1  realized: 1" in out
        assert "3/2  m1^1" in out and "-1/2  m2^1" in out

    def test_json_terms(self, capsys):
        assert main([*self.BASE, "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["terms"] == {"m1^1": "3/2", "m2^1": "-1/2",
                                "n1^1": "1/2", "n2^1": "1/2"}
        assert rec["degree"] == 1 and rec["realized_degree"] == 1
        assert 0 not in rec["signs"]

    def test_on_wall_base_is_a_usage_error(self, capsys):
        code = main(["chamber-fit", "--mu", "5,2", "--nu", "3,2",
                     "--k", "1", "--r", "1", "--s", "2"])
        assert code == 2
        assert "wall" in capsys.readouterr().err

    def test_csv_format_rejected(self, capsys):
        assert main([*self.BASE, "--format", "csv"]) == 2
        assert "--format" in capsys.readouterr().err


class TestWallCross:
    POINT = ["wall-cross", "--mu", "9,3", "--nu", "6,2", "--k", "2",
             "--r", "1", "--s", "2", "--wall-t", "1"]

    def test_named_wall_jump(self, capsys):
        assert main([*self.POINT, "--wall-I", "1", "--wall-J", "1"]) == 0
        out = capsys.readouterr().out
        assert "delta: 1" in out and "crossing: 2" in out

    def test_json_record(self, capsys):
        assert main([*self.POINT, "--wall-I", "1", "--wall-J", "1",
                     "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["wall"] == {"I": [1], "J": [1], "t": 1}
        assert (rec["num"], rec["den"]) == ("2", "1")
        assert rec["delta"] == 1
        assert rec["genus0_agrees"] is True

    def test_one_sided_wall_crosses(self, capsys):
        argv = [*self.POINT, "--wall-I", "1,2", "--wall-J", ""]
        assert main(argv) == 0
        assert "crossing: 20" in capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["genus0_agrees"] is True

    def test_out_of_range_index_names_the_flag(self, capsys):
        code = main([*self.POINT, "--wall-I", "3", "--wall-J", "1"])
        assert code == 2
        assert "--wall-I" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["-1", "3", "7"])
    def test_t_outside_0_to_s_is_a_usage_error(self, capsys, t):
        # the last --wall-t wins over POINT's
        code = main([*self.POINT, "--wall-I", "1", "--wall-J", "1",
                     "--wall-t", t])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: wall I=[1] J=[1] t={t} has t outside 0..2")

    def test_point_on_the_wall_names_the_wall(self, capsys):
        # delta = 10 - 6 - 2 * 2 = 0 on I={1}, J={1}, t=2
        code = main(["wall-cross", "--mu", "10,2", "--nu", "6,2", "--k", "2",
                     "--s", "2", "--wall-I", "1", "--wall-J", "1",
                     "--wall-t", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: wall I=[1] J=[1] t=2: point "
                              "lies on the wall")


CHAMBER_GOLDEN_ARGV = [
    ["chamber-fit", "--mu", "9,3", "--nu", "6,2", "--k", "2",
     "--r", "1", "--s", "2"],
    ["chamber-fit", "--mu", "5", "--nu", "1", "--k", "2",
     "--r", "2", "--s", "2"],
    ["chamber-fit", "--mu", "8,3", "--nu", "5", "--k", "2",
     "--r", "1", "--s", "3"],
    ["chamber-fit", "--mu", "6", "--nu", "3,2", "--k", "1",
     "--r", "2", "--s", "1"],
    ["chamber-fit", "--mu", "9,3", "--nu", "6,2", "--k", "2",
     "--r", "2", "--s", "2"],
    # larger fits: degree 5 in four parts at s = 4 and at r = 3 (genus
    # 2), and a chamber beside a one-sided wall
    ["chamber-fit", "--mu", "11,7", "--nu", "14,12", "--k", "-2",
     "--r", "1", "--s", "4"],
    ["chamber-fit", "--mu", "11,5", "--nu", "8,4", "--k", "2",
     "--r", "3", "--s", "2"],
    ["chamber-fit", "--mu", "4", "--nu", "13,12,11", "--k", "-16",
     "--r", "2", "--s", "2"],
    ["wall-cross", "--mu", "9,3", "--nu", "6,2", "--k", "2",
     "--r", "1", "--s", "2", "--wall-I", "1", "--wall-J", "1",
     "--wall-t", "1"],
    ["wall-cross", "--mu", "9,3", "--nu", "5,5", "--k", "1",
     "--r", "1", "--s", "2", "--wall-I", "1", "--wall-J", "1",
     "--wall-t", "1"],
]


def test_chamber_golden(capsys):
    """chamber-fit on criterion 5's bases and wall-cross on the named
    wall, as JSON, match the pinned output once ms is stripped."""
    out = []
    for argv in CHAMBER_GOLDEN_ARGV:
        assert main([*argv, "--format", "json"]) == 0
        out.append(strip_ms(capsys.readouterr().out))
    assert "".join(out) == (GOLDEN / "chamber_fit.json").read_text(
        encoding="utf-8")


class TestVerifiers:
    def test_cutjoin_step_passes(self, capsys):
        code = main(["cutjoin-verify", "--nu", "2,1", "--k", "1",
                     "--r", "1", "--s", "2"])
        assert code == 0
        assert "ok over" in capsys.readouterr().out

    def test_cutjoin_json(self, capsys):
        code = main(["cutjoin-verify", "--nu", "2", "--k", "0",
                     "--r", "1", "--s", "1", "--format", "json"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["ok"] is True and rec["mismatches"] == []

    def test_oracle_sweep_passes(self, capsys):
        code = main(["oracle-verify", "--max-size", "2", "--max-s", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out

    def test_selftest_subset(self, capsys):
        assert main(["selftest", "--criteria", "1,2"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2

    def test_selftest_unknown_criterion(self, capsys):
        assert main(["selftest", "--criteria", "99"]) == 2
        assert "--criteria" in capsys.readouterr().err

    def test_selftest_bad_token_names_its_position(self, capsys):
        assert main(["selftest", "--criteria", "1,,2"]) == 2
        err = capsys.readouterr().err
        assert "--criteria" in err and "position 2" in err


class TestTreeDump:
    def test_dot_output(self, capsys):
        code = main(["tree-dump", "--mu", "3", "--nu", "1", "--k", "1",
                     "--r", "1", "--s", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph commutation {")
        assert "a3" in out and out.rstrip().endswith("}")

    def test_empty_sequence_rejected(self, capsys):
        code = main(["tree-dump", "--mu", "", "--nu", "", "--k", "0",
                     "--r", "1", "--s", "0"])
        assert code == 2

    @pytest.mark.parametrize("name,argv", [
        ("tree_2_11_k0.dot",
         ["--mu", "2", "--nu", "1,1", "--k", "0", "--s", "1"]),
        ("tree_5_22_k1_max4.dot",
         ["--mu", "5", "--nu", "2,2", "--k", "1", "--s", "1",
          "--max-nodes", "4"]),
        ("tree_3_1_k1_s2.dot",
         ["--mu", "3", "--nu", "1", "--k", "1", "--s", "2"]),
        ("tree_3_111_k0_caps3.dot",
         ["--mu", "3", "--nu", "1,1,1", "--k", "0", "--s", "1",
          "--caps", "3", "--max-nodes", "40"]),
    ])
    def test_golden_dot(self, capsys, name, argv):
        assert main(["tree-dump", "--r", "1", *argv]) == 0
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert capsys.readouterr().out == want


# Valid flags per subcommand; the fuzz test spoils exactly one of them.
VALID_FLAGS = {
    "compute": {"--mu": "5", "--nu": "1,1,1", "--k": "1", "--r": "1",
                "--s": "2"},
    "table": {"--max-part": "2", "--max-len": "1", "--r": "1", "--s": "1"},
    "chamber-fit": {"--mu": "9,3", "--nu": "6,2", "--k": "2", "--r": "1",
                    "--s": "2"},
    "wall-cross": {"--mu": "9,3", "--nu": "6,2", "--k": "2", "--r": "1",
                   "--s": "2", "--wall-I": "1", "--wall-J": "1",
                   "--wall-t": "1"},
    "tree-dump": {"--mu": "3", "--nu": "1", "--k": "1", "--r": "1",
                  "--s": "2", "--caps": "2,2", "--max-nodes": "400"},
    "cutjoin-verify": {"--nu": "2,1", "--k": "1", "--r": "1", "--s": "2"},
}
EXTRA_SWITCHES = {"compute": ["--connected"]}


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# argparse rejects these for every type=int flag
NOT_AN_INT = st.text(max_size=8).filter(_not_an_int)
BAD_R = st.one_of(st.integers(max_value=0).map(str), NOT_AN_INT)
BAD_S = st.one_of(
    st.integers(max_value=-1).map(str),
    st.text(max_size=8).filter(lambda t: t != "auto" and _not_an_int(t)))
# a blank token would turn a one-part list into the valid empty profile
BAD_TOKEN = st.one_of(
    st.sampled_from(["0", "00"]),
    st.integers(max_value=-1).map(str),
    st.text(min_size=1, max_size=6).filter(
        lambda t: "," not in t and t.strip()
        and not t.strip().isdecimal()))
BAD_VALUE = {"--r": BAD_R, "--s": BAD_S, "--k": NOT_AN_INT,
             "--max-part": NOT_AN_INT, "--max-len": NOT_AN_INT,
             "--max-nodes": NOT_AN_INT, "--wall-t": NOT_AN_INT}
PARTS_FLAGS = ("--mu", "--nu", "--caps")
TARGETS = [(sub, flag) for sub, flags in VALID_FLAGS.items()
           for flag in flags if flag in BAD_VALUE or flag in PARTS_FLAGS]


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bad_input_is_a_usage_error(self, data):
        sub, flag = data.draw(st.sampled_from(TARGETS))
        if flag in PARTS_FLAGS:
            token = data.draw(BAD_TOKEN)
            good = VALID_FLAGS[sub][flag].split(",")
            pos = data.draw(st.integers(0, len(good) - 1))
            good[pos] = token
            value = ",".join(good)
        else:
            value = data.draw(BAD_VALUE[flag])
        flags = dict(VALID_FLAGS[sub], **{flag: value})
        argv = [sub, *(f"{f}={v}" for f, v in flags.items()),
                *EXTRA_SWITCHES.get(sub, [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert err.getvalue().startswith("usage error"), argv
        assert out.getvalue() == "", argv


class TestProcessLevel:
    def test_module_invocation_and_argparse_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", "compute",
             "--mu", "5", "--nu", "1,1,1", "--k", "1", "--r", "1",
             "--s", "2", "--connected"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and "= 9/1" in proc.stdout
        bad = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", "compute",
             "--mu", "3", "--nu", "3", "--k", "0", "--s", "1",
             "--no-such-flag"],
            capture_output=True, text=True)
        assert bad.returncode == 2
        assert "--no-such-flag" in bad.stderr

    @pytest.mark.parametrize("connected", [[], ["--connected"]],
                             ids=["disconnected", "connected"])
    def test_unbalanced_negative_k_query_is_zero_in_a_fresh_process(
            self, connected):
        proc = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", "compute",
             "--mu", "1", "--nu", "1", "--k", "-5", "--s", "3",
             *connected, "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        assert (rec["num"], rec["den"], rec["method"]) == ("0", "1", "engine")

    @pytest.mark.parametrize("argv", [
        ["chamber-fit", *TestChamberFit.BASE[1:]],
        [*TestWallCross.POINT, "--wall-I", "1", "--wall-J", "1"],
        ["cutjoin-verify", "--nu", "2", "--k", "0"],
        ["oracle-verify", "--max-size", "1"],
        ["tree-dump", "--mu", "3", "--nu", "1", "--k", "1", "--s", "2"],
        ["selftest", "--criteria", "1"],
    ], ids=lambda argv: argv[0])
    def test_lazily_importing_command_runs_in_a_fresh_process(self, argv):
        # in-process tests run after other tests have loaded chambers,
        # cutjoin and verify, so only a fresh process sees a missing import
        proc = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout

    def test_report_command_usage_error_under_python_m(self):
        # commands.py raises the UsageError of leakyhurwitz.cli, which
        # main must catch when cli.py also runs as __main__
        proc = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", *TestWallCross.POINT,
             "--wall-I", "3", "--wall-J", "1"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("usage error: --wall-I: position 1: part "
                               "position 3 exceeds the 2 mu-parts\n")

    @pytest.mark.parametrize("argv", [
        ["compute", *ONE_PART, "--connected"],
        ["table", "--s", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unusable_cache_path_is_a_usage_error(self, tmp_path, argv,
                                                  where):
        path = (tmp_path / "missing" / "cache.jsonl"
                if where == "missing-directory" else tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "leakyhurwitz.cli", *argv,
             "--cache", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: --cache: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # the reader stops after one row, as `| head -1` does, while the
        # table still has rows to write
        proc = subprocess.Popen(
            [sys.executable, "-m", "leakyhurwitz.cli", "table",
             "--max-part", "5", "--max-len", "4", "--k-min", "-3",
             "--k-max", "3", "--s", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert first.startswith(b"h(mu=[], nu=[], k=0") and err == b""

    @pytest.mark.skipif(shutil.which("leakyhurwitz") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["leakyhurwitz", "compute", "--mu", "5", "--nu", "1,1,1",
             "--k", "1", "--r", "1", "--s", "2", "--connected"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and "= 9/1" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["cutjoin-verify", "--nu", "2", "--k", "0", "--format", "csv"],
    ["oracle-verify", "--max-size", "1", "--format", "csv"],
    ["tree-dump", "--mu", "3", "--nu", "1", "--k", "1", "--s", "2",
     "--format", "plain"],
    ["selftest", "--criteria", "1", "--format", "plain"],
    ["chamber-fit", "--mu", "9,3", "--nu", "6,2", "--k", "2", "--s", "2",
     "--cache", "cache.jsonl"],
    ["oracle-verify", "--max-size", "1", "--cache", "cache.jsonl"],
    ["compute", *ONE_PART, "--connected", "--caps", "3,3"],
    ["cutjoin-verify", "--nu", "2,1", "--k", "1", "--genus", "1"],
    ["cutjoin-verify", "--nu", "2,1", "--k", "1", "--s", "auto"],
    ["table", "--max-part", "2", "--s", "auto"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error") and argv[-2] in err


def test_table_without_s_is_a_usage_error(capsys):
    assert main(["table", "--max-part", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: the following arguments are required: --s\n"


def readme_cli_rows():
    """(subcommand, flags) per row of README's command-line reference
    table; a `--s|--genus` alternative counts as two flags."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Command-line reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        spans = re.findall(r"`([^`]*)`", cells[2].replace("\\|", " "))
        flags = [tok for span in spans for tok in span.split()
                 if tok.startswith("--")]
        rows.append((cells[0].strip("`"), flags))
    return rows


def test_readme_cli_table_lists_only_accepted_flags():
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    rows = readme_cli_rows()
    assert {sub for sub, _ in rows} == set(subparsers.choices)
    for sub, flags in rows:
        accepted = subparsers.choices[sub]._option_string_actions
        assert flags and [f for f in flags if f not in accepted] == [], sub
