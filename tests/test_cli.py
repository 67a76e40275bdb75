"""Command-line interface: records, formats, exit codes, caching."""
import contextlib
import io
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from leakyhurwitz.cli import balanced_triples, main
from leakyhurwitz.numbers import bounded_profiles

ONE_PART = ["--mu", "5", "--nu", "1,1,1", "--k", "1", "--r", "1", "--s", "2"]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def strip_ms(text):
    return re.sub(r'("ms":|ms=)[0-9.]+', r"\g<1>0", text)


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

    def test_s_auto_rejects_non_multiple(self, capsys):
        # 2g-2+m+n = 3 is not a multiple of r=2
        code = main(["compute", "--mu", "5", "--nu", "1,1", "--k", "1",
                     "--r", "2", "--s", "auto", "--genus", "1"])
        assert code == 2
        assert "--s auto" in capsys.readouterr().err

    def test_caps_override_keeps_the_value(self, capsys):
        assert main(["compute", *ONE_PART, "--connected",
                     "--caps", "3,4"]) == 0
        out = capsys.readouterr().out
        assert "= 9/1" in out and "method=engine-caps" in out

    def test_caps_below_extraction_degree_rejected(self, capsys):
        code = main(["compute", *ONE_PART, "--connected", "--caps", "1,1"])
        assert code == 2
        assert "--caps" in capsys.readouterr().err

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

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_balanced_triples_match_the_full_scan(self, s):
        profiles = [p for length in range(4)
                    for p in reversed(bounded_profiles(4, length))]
        ks = range(-3, 3)
        scan = [(mu, nu, k) for mu in profiles for nu in profiles
                for k in ks if sum(mu) == sum(nu) + s * k]
        assert list(balanced_triples(profiles, ks, s)) == scan
        assert any(k < 0 for _, _, k in scan)


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

    def test_one_sided_wall_is_a_usage_error(self, capsys):
        code = main([*self.POINT, "--wall-I", "1,2", "--wall-J", ""])
        assert code == 2

    def test_out_of_range_index_names_the_flag(self, capsys):
        code = main([*self.POINT, "--wall-I", "3", "--wall-J", "1"])
        assert code == 2
        assert "--wall-I" in capsys.readouterr().err


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
                "--s": "2", "--caps": "3,3"},
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

    @pytest.mark.parametrize("argv", [
        ["chamber-fit", *TestChamberFit.BASE[1:]],
        [*TestWallCross.POINT, "--wall-I", "1", "--wall-J", "1"],
        ["cutjoin-verify", "--nu", "2", "--k", "0"],
        ["oracle-verify", "--max-size", "1"],
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
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and argv[-2] in err
