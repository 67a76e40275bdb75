"""Exact enumeration of k-leaky completed-cycles double Hurwitz numbers.

The package computes, entirely in rational arithmetic, the connected and
disconnected double Hurwitz numbers h(mu, nu, k, r, s): weighted counts
of factorizations that transport a ramification profile ``mu`` to a
profile ``nu`` through ``s`` completed (r+1)-cycles while leaking ``k``
units of degree at every step, so that |mu| = |nu| + s*k.

Two independent evaluation routes are provided and cross-checked: a
capped power-series engine that commutes energy operators past a vacuum
expectation (:func:`connected_hurwitz`, :func:`disconnected_hurwitz`),
and a brute-force fermionic oracle that applies the same operators to
an explicit basis of the charge-zero sector (:func:`oracle_disconnected`).
On top of the numbers the package verifies their structure: chamber-wise
polynomiality (:func:`fit_chamber_polynomial`), wall-crossing jumps
(:func:`wall_crossing_series`), a cut-and-join evolution equation
(:func:`verify_cut_and_join`), and one-part closed forms.  The
:mod:`leakyhurwitz.verify` module bundles these into ten numbered
criteria; ``leakyhurwitz`` is also an installable command-line tool.

Everything user-facing is exact: values are ``fractions.Fraction``
and verification is equality, not approximation.

Exported names and submodules load on first use (PEP 562), so importing
the package or its command-line front end compiles and runs only the
modules a command needs.
"""

from importlib import import_module

# home module -> the names it exports here
_HOMES = {
    "chambers": ("ChamberFitError", "ChamberPoly", "LatticePoint", "Wall",
                 "all_walls", "complement_wall", "delta_of",
                 "fit_chamber_polynomial", "lattice_point", "sign_vector",
                 "wall", "wall_crossing_genus0", "wall_crossing_series"),
    "cutjoin": ("verify_cut_and_join",),
    "fock": ("commutation_tree_dot", "connected_hurwitz", "hurwitz_sequence"),
    "numbers": ("HurwitzCache", "HurwitzQuery", "HurwitzResult",
                "aut_factor", "cmr_leaky_r1", "disconnected_hurwitz",
                "evaluate", "genus_of", "make_query",
                "one_part_closed_genus0"),
    "oracle": ("oracle_disconnected",),
    "series": ("Q", "TruncSeries"),
    "verify": ("clear_caches", "format_report", "run_all"),
}
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home or name}", __name__)
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
