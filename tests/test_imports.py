"""Import cost: what the package and its CLI load, and the lazy exports."""
import json
import subprocess
import sys

import pytest

import leakyhurwitz

EXPORTS = [
    "ChamberFitError", "ChamberPoly", "ChamberSampleError", "HurwitzCache",
    "HurwitzQuery", "HurwitzResult", "LatticePoint", "Q", "TruncSeries",
    "Wall", "all_walls", "aut_factor", "cmr_leaky_r1",
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


LOADED = ("json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'leakyhurwitz'))")


def test_cli_import_loads_only_the_modules_compute_uses():
    got = fresh(f"import json, leakyhurwitz.cli\nprint({LOADED})")
    assert got == ["leakyhurwitz", "leakyhurwitz.cli", "leakyhurwitz.fock",
                   "leakyhurwitz.numbers", "leakyhurwitz.oracle",
                   "leakyhurwitz.series"]


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
