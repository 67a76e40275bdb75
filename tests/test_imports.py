"""Import cost: what the package and its CLI load, and the lazy exports."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import leakyhurwitz

EXPORTS = [
    "ChamberFitError", "ChamberPoly", "HurwitzCache", "HurwitzQuery",
    "HurwitzResult", "LatticePoint", "Q", "TruncSeries",
    "Wall", "all_walls", "aut_factor", "clear_caches", "cmr_leaky_r1",
    "commutation_tree_dot", "complement_wall", "connected_hurwitz",
    "delta_of", "disconnected_hurwitz", "evaluate", "fit_chamber_polynomial",
    "format_report", "genus_of", "hurwitz_sequence", "lattice_point",
    "make_query", "one_part_closed_genus0", "oracle_disconnected", "run_all",
    "sign_vector", "verify_cut_and_join", "wall", "wall_crossing_genus0",
    "wall_crossing_series",
]


def fresh(code):
    """Run code in a new interpreter and return its last stdout line as
    JSON; sys.path is the test process's, so src/ is found as here."""
    prelude = f"import sys; sys.path[:0] = {sys.path!r}\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _load_spans():
    """perfbench/spans.py, imported by path: the names its tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()

LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'leakyhurwitz'))")


def test_cli_import_loads_only_the_modules_compute_uses():
    got = fresh(f"import json, leakyhurwitz.cli\nprint({LOADED})")
    assert got == ["leakyhurwitz", "leakyhurwitz.cli",
                   "leakyhurwitz.numbers", "leakyhurwitz.oracle"]


def test_compute_and_table_never_load_the_report_commands():
    got = fresh(
        "import contextlib, io, json\n"
        "from leakyhurwitz import cli\n"
        "loaded = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in [['compute', '--mu', '5', '--nu', '1,1,1', '--k',\n"
        "                  '1', '--s', '2'], ['table', '--s', '1'],\n"
        "                 ['tree-dump', '--mu', '3', '--nu', '1', '--k',\n"
        "                  '1', '--s', '2']]:\n"
        "        loaded.append([cli.main(argv),\n"
        "                       'leakyhurwitz.commands' in sys.modules])\n"
        "print(json.dumps(loaded))")
    assert got == [[0, False], [0, False], [0, True]]


def test_cli_defines_only_the_record_handlers():
    from leakyhurwitz import cli
    assert sorted(name for name in vars(cli) if name.startswith("cmd_")) == [
        "cmd_compute", "cmd_table"]


def test_oracle_import_shares_nothing_with_the_engine():
    # the two routes share nothing above the rational-number type
    got = fresh(f"import json, leakyhurwitz.oracle\nprint({LOADED})")
    assert got == ["leakyhurwitz", "leakyhurwitz.oracle"]


ENGINE = ["leakyhurwitz.fock", "leakyhurwitz.series"]


@pytest.mark.parametrize("argv,value,method,loaded", [
    pytest.param("--mu 8,6,4 --nu 6,5,3 --k 1 --s 4", ["75737", "2"],
                 "fock", [], id="fock-row"),
    pytest.param("--mu 5 --nu 2 --k 1 --s 1", ["0", "1"], "engine", [],
                 id="unbalanced"),
    pytest.param("--mu 5 --nu 2 --k 1 --s 1 --connected", ["0", "1"],
                 "engine", [], id="unbalanced-connected"),
    pytest.param("--mu 24,16 --nu 20,12 --k 4 --s 2 --connected",
                 ["44", "1"], "engine", ENGINE, id="engine-row"),
])
def test_compute_loads_the_engine_only_on_an_engine_row(argv, value, method,
                                                        loaded):
    got = fresh(
        "import contextlib, io, json\n"
        "from leakyhurwitz import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = cli.main(['compute', *{argv.split()!r}, '--format', "
        "'json'])\n"
        "rec = json.loads(out.getvalue())\n"
        "print(json.dumps([rc, rec['num'], rec['den'], rec['method'],\n"
        f"                  sorted(set(sys.modules) & set({ENGINE!r}))]))")
    assert got == [0, *value, method, loaded]


def test_every_export_resolves_and_star_import_binds_it():
    got = fresh(
        "import json, importlib, leakyhurwitz as lh\n"
        "star = {}\n"
        "exec('from leakyhurwitz import *', star)\n"
        "print(json.dumps({'all': lh.__all__, 'unbound': [\n"
        "    n for n in lh.__all__ if star.get(n) is not getattr(lh, n)]}))")
    assert got == {"all": EXPORTS, "unbound": []}


@pytest.mark.parametrize("name", ["chambers", "cutjoin", "cli"])
def test_submodule_attribute_imports_it(name):
    got = fresh(
        f"import json, leakyhurwitz as lh\n"
        f"mod = getattr(lh, {name!r})\n"
        f"print(json.dumps([mod.__name__, mod is sys.modules[mod.__name__]]))")
    assert got == [f"leakyhurwitz.{name}", True]


def test_export_is_its_home_modules_object():
    from leakyhurwitz import chambers, numbers, series
    assert leakyhurwitz.evaluate is numbers.evaluate
    assert leakyhurwitz.wall is chambers.wall
    assert leakyhurwitz.Q is series.Q


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        leakyhurwitz.no_such_name
    assert not hasattr(leakyhurwitz, "numbers_of_things")
    assert set(EXPORTS) <= set(dir(leakyhurwitz))


@pytest.mark.parametrize("module,attr", SPANS.FUNCTIONS,
                         ids=[".".join(f) for f in SPANS.FUNCTIONS])
def test_benchmark_traced_function_resolves(module, attr):
    assert callable(getattr(getattr(leakyhurwitz, module), attr))


@pytest.mark.parametrize("module,cls,attrs", SPANS.METHODS,
                         ids=[".".join(m[:2]) for m in SPANS.METHODS])
def test_benchmark_traced_methods_are_on_their_class(module, cls, attrs):
    klass = getattr(getattr(leakyhurwitz, module), cls)
    assert [a for a in attrs if a not in klass.__dict__] == []
