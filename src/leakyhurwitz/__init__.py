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
"""

from .chambers import (
    ChamberFitError,
    ChamberPoly,
    ChamberSampleError,
    LatticePoint,
    Wall,
    all_walls,
    complement_wall,
    delta_of,
    fit_chamber_polynomial,
    lattice_point,
    sign_vector,
    wall,
    wall_crossing_genus0,
    wall_crossing_series,
)
from .cutjoin import verify_cut_and_join
from .fock import commutation_tree_dot, connected_hurwitz, hurwitz_sequence
from .numbers import (
    HurwitzCache,
    HurwitzQuery,
    HurwitzResult,
    aut_factor,
    cmr_leaky_r1,
    disconnected_hurwitz,
    evaluate,
    genus_of,
    make_query,
    one_part_closed_genus0,
)
from .oracle import oracle_disconnected
from .series import Q, TruncSeries
from .verify import format_report, run_all

__all__ = [
    "ChamberFitError",
    "ChamberPoly",
    "ChamberSampleError",
    "HurwitzCache",
    "HurwitzQuery",
    "HurwitzResult",
    "LatticePoint",
    "Q",
    "TruncSeries",
    "Wall",
    "all_walls",
    "aut_factor",
    "cmr_leaky_r1",
    "commutation_tree_dot",
    "complement_wall",
    "connected_hurwitz",
    "delta_of",
    "disconnected_hurwitz",
    "evaluate",
    "fit_chamber_polynomial",
    "format_report",
    "genus_of",
    "hurwitz_sequence",
    "lattice_point",
    "make_query",
    "one_part_closed_genus0",
    "oracle_disconnected",
    "run_all",
    "sign_vector",
    "verify_cut_and_join",
    "wall",
    "wall_crossing_genus0",
    "wall_crossing_series",
]
