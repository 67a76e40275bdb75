"""Command-line front end: single numbers, batch tables, chamber fits,
wall crossings, verification suites, and DOT dumps of the commutation
recursion.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Records
are emitted as plain text, one-object-per-line JSON, or CSV with the
header mu,nu,k,r,s,connected,num,den,genus,method,ms.  Exact values are
always decimal-string numerator/denominator pairs, never floats.
Output ordering (records and map keys) is deterministic for fixed
inputs; only the timing field varies between runs.
"""
import argparse
import csv
import json
import os
import sys
import time

from .chambers import (
    ChamberFitError,
    ChamberSampleError,
    delta_of,
    fit_chamber_polynomial,
    format_chamber_report,
    format_wall_report,
    lattice_point,
    wall,
    wall_crossing_genus0,
    wall_crossing_series,
)
from .cutjoin import verify_cut_and_join
from .fock import (
    commutation_tree_dot,
    connected_hurwitz,
    hurwitz_sequence,
)
from .numbers import (
    HurwitzCache,
    HurwitzResult,
    bounded_profiles,
    evaluate,
    genus_of,
    make_query,
)
from . import verify as verify_mod

CACHE_ENV = "LEAKYHURWITZ_CACHE"
FORMATS = ("plain", "json", "csv")


class UsageError(Exception):
    """Invalid command input; the message names the offending flag."""


# -- parsing helpers -----------------------------------------------------

def parse_parts(text, flag):
    """Comma-separated positive parts; empty string is the empty profile."""
    if text is None or text.strip() == "":
        return ()
    parts = []
    for pos, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok.isdecimal() or int(tok) == 0:
            raise UsageError(
                f"{flag}: position {pos}: expected a positive integer "
                f"part, got {tok!r}")
        parts.append(int(tok))
    return tuple(parts)


def parse_indices(text, flag, length, side):
    """Comma-separated 1-based part positions for a wall index set."""
    if text is None or text.strip() == "":
        return frozenset()
    out = set()
    for pos, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok.isdecimal() or int(tok) == 0:
            raise UsageError(
                f"{flag}: position {pos}: expected a 1-based part "
                f"position, got {tok!r}")
        idx = int(tok)
        if idx > length:
            raise UsageError(
                f"{flag}: position {pos}: part position {idx} exceeds "
                f"the {length} {side}-parts")
        out.add(idx - 1)
    return frozenset(out)


def resolve_s(args, m, n):
    """The insertion count, either given or derived from the genus.

    Every subcommand that takes --r calls this first, so --r is also
    checked here.
    """
    if args.r < 1:
        raise UsageError(f"--r: must be >= 1, got {args.r}")
    if args.s != "auto":
        try:
            s = int(args.s)
        except ValueError:
            raise UsageError(f"--s: expected an integer or 'auto', "
                             f"got {args.s!r}") from None
        if s < 0:
            raise UsageError("--s: must be >= 0")
        return s
    if args.genus is None:
        raise UsageError("--s auto requires --genus")
    need = 2 * args.genus - 2 + m + n
    if need < 0 or need % args.r != 0:
        raise UsageError(
            f"--s auto: 2g-2+m+n = {need} is not a nonnegative "
            f"multiple of r = {args.r}")
    return need // args.r


def parse_caps(text, r, s):
    caps = []
    for pos, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok.isdecimal():
            raise UsageError(f"--caps: position {pos}: expected a "
                             f"nonnegative integer, got {tok!r}")
        caps.append(int(tok))
    if len(caps) != s:
        raise UsageError(f"--caps: need one cap per insertion "
                         f"({s}), got {len(caps)}")
    if any(c < r + 1 for c in caps):
        raise UsageError(f"--caps: every cap must be >= r+1 = {r + 1} "
                         f"to keep the extracted coefficient")
    return tuple(caps)


def open_cache(args):
    path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV)
    return HurwitzCache(path) if path else None


# -- records -------------------------------------------------------------

CSV_HEADER = ("mu", "nu", "k", "r", "s", "connected", "num", "den",
              "genus", "method", "ms")


def number_record(res):
    q = res.query
    return {
        "mu": list(q.mu), "nu": list(q.nu), "k": q.k, "r": q.r, "s": q.s,
        "connected": q.connected,
        "num": str(res.value.numerator),
        "den": str(res.value.denominator),
        "genus": str(genus_of(q)),
        "method": res.method,
        "ms": round(res.ms, 3),
    }


def emit_records(records, fmt, out):
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([
                " ".join(str(p) for p in rec["mu"]),
                " ".join(str(p) for p in rec["nu"]),
                rec["k"], rec["r"], rec["s"],
                "true" if rec["connected"] else "false",
                rec["num"], rec["den"], rec["genus"], rec["method"],
                rec["ms"],
            ])
    else:
        for rec in records:
            kind = "connected" if rec["connected"] else "disconnected"
            out.write(
                f"h(mu={rec['mu']}, nu={rec['nu']}, k={rec['k']}, "
                f"r={rec['r']}, s={rec['s']}, {kind}) = "
                f"{rec['num']}/{rec['den']}  "
                f"[method={rec['method']} genus={rec['genus']} "
                f"ms={rec['ms']}]\n")


# -- subcommands ---------------------------------------------------------

def cmd_compute(args, out):
    mu = parse_parts(args.mu, "--mu")
    nu = parse_parts(args.nu, "--nu")
    s = resolve_s(args, len(mu), len(nu))
    try:
        q = make_query(mu, nu, args.k, args.r, s, args.connected)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.caps is not None:
        caps = parse_caps(args.caps, q.r, q.s)
        if not q.connected:
            raise UsageError("--caps: the truncation override applies "
                             "to connected queries only")
        start = time.perf_counter()
        value = connected_hurwitz(q.mu, q.nu, q.k, q.r, q.s, caps=caps)
        ms = (time.perf_counter() - start) * 1000.0
        rec = number_record(HurwitzResult(value, q, "engine-caps", ms))
    else:
        res = evaluate(q, open_cache(args))
        rec = number_record(res)
    emit_records([rec], args.format, out)
    return 0


def cmd_table(args, out):
    if args.max_part < 1:
        raise UsageError("--max-part: must be >= 1")
    if args.max_len < 1:
        raise UsageError("--max-len: must be >= 1")
    if args.k_min > args.k_max:
        raise UsageError("--k-min: exceeds --k-max")
    if args.s == "auto":
        raise UsageError("--s: table needs an explicit insertion count")
    s = resolve_s(args, 0, 0)
    # shortest first, ascending within a length
    profiles = [p for length in range(args.max_len + 1)
                for p in reversed(bounded_profiles(args.max_part, length))]
    queries = []
    for mu in profiles:
        for nu in profiles:
            for k in range(args.k_min, args.k_max + 1):
                if sum(mu) != sum(nu) + s * k:
                    continue
                queries.append(make_query(mu, nu, k, args.r, s,
                                          args.connected))
    cache = open_cache(args)
    emit_records([number_record(evaluate(q, cache)) for q in queries],
                 args.format, out)
    return 0


def cmd_chamber_fit(args, out):
    mu = parse_parts(args.mu, "--mu")
    nu = parse_parts(args.nu, "--nu")
    if not mu or not nu:
        raise UsageError("--mu/--nu: chamber fits need nonempty profiles")
    s = resolve_s(args, len(mu), len(nu))
    try:
        base = lattice_point(mu, nu, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    start = time.perf_counter()
    try:
        poly = fit_chamber_polynomial(base, args.r, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except (ChamberFitError, ChamberSampleError) as exc:
        print(f"chamber fit failed: {exc}", file=sys.stderr)
        return 1
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    if args.format == "json":
        names = [f"m{i + 1}" for i in range(poly.m)]
        names += [f"n{j + 1}" for j in range(poly.n)]
        terms = {}
        for exps, c in sorted(poly.coeffs.items(), reverse=True):
            mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps)
                            if e) or "1"
            terms[mono] = f"{c.numerator}/{c.denominator}"
        rec = {
            "mu": list(base.mu), "nu": list(base.nu), "k": base.k,
            "r": poly.r, "s": poly.s,
            "degree": poly.degree,
            "realized_degree": poly.realized_degree(),
            "terms": terms,
            "signs": list(poly.signs),
            "ms": ms,
        }
        out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        raise UsageError("--format: chamber-fit emits plain or json")
    else:
        out.write(format_chamber_report(poly) + "\n")
    return 0


def cmd_wall_cross(args, out):
    mu = parse_parts(args.mu, "--mu")
    nu = parse_parts(args.nu, "--nu")
    if not mu or not nu:
        raise UsageError("--mu/--nu: wall crossings need nonempty profiles")
    s = resolve_s(args, len(mu), len(nu))
    I = parse_indices(args.wall_I, "--wall-I", len(mu), "mu")
    J = parse_indices(args.wall_J, "--wall-J", len(nu), "nu")
    w = wall(I, J, args.wall_t)
    try:
        point = lattice_point(mu, nu, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    start = time.perf_counter()
    try:
        value = wall_crossing_series(w, point, args.r, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    delta = delta_of(w, point)
    status = 0
    cross_check = None
    if args.r == 1 and s == len(mu) + len(nu) - 2:
        cross_check = wall_crossing_genus0(w, point)
        if cross_check != value:
            print(f"verification failure: series {value} != genus-zero "
                  f"form {cross_check} at mu={list(mu)} nu={list(nu)} "
                  f"k={args.k}", file=sys.stderr)
            status = 1
    if args.format == "json":
        rec = {
            "wall": {"I": sorted(i + 1 for i in w.I),
                     "J": sorted(j + 1 for j in w.J), "t": w.t},
            "mu": list(point.mu), "nu": list(point.nu), "k": point.k,
            "r": args.r, "s": s,
            "delta": delta,
            "num": str(value.numerator), "den": str(value.denominator),
            "genus0_agrees": (None if cross_check is None
                              else cross_check == value),
            "ms": ms,
        }
        out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    elif args.format == "csv":
        raise UsageError("--format: wall-cross emits plain or json")
    else:
        out.write(format_wall_report(w, point, value, delta) + "\n")
    return status


def cmd_cutjoin_verify(args, out):
    nu = parse_parts(args.nu, "--nu")
    s = resolve_s(args, 0, len(nu))
    if s < 1:
        raise UsageError("--s: the evolution step needs s >= 1")
    try:
        report = verify_cut_and_join(nu, args.k, args.r, s)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        rec = {
            "nu": list(report["nu"]), "k": report["k"], "r": report["r"],
            "s": report["s"], "ok": report["ok"],
            "profiles": report["profiles"],
            "mismatches": [
                {"profile": list(prof),
                 "expected": f"{w.numerator}/{w.denominator}",
                 "got": f"{g.numerator}/{g.denominator}"}
                for prof, w, g in report["mismatches"]],
        }
        out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    else:
        mark = "ok" if report["ok"] else "MISMATCH"
        out.write(f"cut-and-join step nu={list(report['nu'])} "
                  f"k={report['k']} r={report['r']} s={report['s']}: "
                  f"{mark} over {report['profiles']} profiles\n")
        for prof, want, got in report["mismatches"]:
            out.write(f"  profile {list(prof)}: expected "
                      f"{want.numerator}/{want.denominator}, got "
                      f"{got.numerator}/{got.denominator}\n")
    return 0 if report["ok"] else 1


def cmd_oracle_verify(args, out):
    if args.max_size < 0 or args.max_s < 0:
        raise UsageError("--max-size/--max-s: must be >= 0")
    checked, failures = verify_mod.oracle_sweep(args.max_size, args.max_s)
    if args.format == "json":
        rec = {"checked": checked, "mismatches": len(failures),
               "first_mismatches": failures[:10]}
        out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    else:
        out.write(f"oracle agreement: {checked} queries checked, "
                  f"{len(failures)} mismatches\n")
        for line in failures[:10]:
            out.write(f"  {line}\n")
    return 0 if not failures else 1


def cmd_tree_dump(args, out):
    mu = parse_parts(args.mu, "--mu")
    nu = parse_parts(args.nu, "--nu")
    s = resolve_s(args, len(mu), len(nu))
    caps = ((args.r + 1,) * s if args.caps is None
            else parse_caps(args.caps, args.r, s))
    ops = hurwitz_sequence(mu, nu, args.k, s)
    if not ops:
        raise UsageError("--mu/--nu/--s: nothing to dump for the empty "
                         "operator sequence")
    if args.max_nodes < 1:
        raise UsageError("--max-nodes: must be >= 1")
    dot = commutation_tree_dot(ops, caps, max_nodes=args.max_nodes)
    out.write(dot if dot.endswith("\n") else dot + "\n")
    return 0


def cmd_selftest(args, out):
    if args.criteria:
        try:
            numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError:
            raise UsageError("--criteria: expected comma-separated "
                             "criterion numbers") from None
        unknown = [i for i in numbers if i not in verify_mod.ALL_CRITERIA]
        if unknown:
            raise UsageError(f"--criteria: unknown criteria {unknown}")
    else:
        numbers = sorted(verify_mod.ALL_CRITERIA)
    all_ok = True
    for num in numbers:
        rep = verify_mod.ALL_CRITERIA[num]()
        all_ok = all_ok and rep.ok
        out.write(verify_mod.format_report(rep) + "\n")
        out.flush()
    return 0 if all_ok else 1


# -- argument wiring -----------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=FORMATS, default="plain",
                   help="output format (default plain)")
    p.add_argument("--cache", default=None,
                   help=f"cache file path (default ${CACHE_ENV})")


def _add_query_flags(p, need_point=True):
    p.add_argument("--mu", default="", help="comma-separated mu parts")
    p.add_argument("--nu", default="", help="comma-separated nu parts")
    if need_point:
        p.add_argument("--k", type=int, required=True, help="leak per "
                       "insertion")
    p.add_argument("--r", type=int, default=1,
                   help="completed-cycle order r (default 1)")
    p.add_argument("--s", default="auto",
                   help="insertion count, or 'auto' with --genus")
    p.add_argument("--genus", type=int, default=None,
                   help="genus used to derive s when --s auto")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leakyhurwitz",
        description="Exact leaky completed-cycles double Hurwitz numbers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", help="one exact number")
    _add_query_flags(p)
    p.add_argument("--connected", action="store_true",
                   help="connected count (default disconnected)")
    p.add_argument("--caps", default=None,
                   help="per-insertion truncation override (connected only)")
    _add_common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="grid of numbers over profile ranges")
    p.add_argument("--max-part", type=int, default=4)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--k-min", type=int, default=-2)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", default="auto")
    p.add_argument("--connected", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chamber-fit", help="exact chamber polynomial")
    _add_query_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_chamber_fit)

    p = sub.add_parser("wall-cross", help="wall-crossing jump at a point")
    _add_query_flags(p)
    p.add_argument("--wall-I", default="", help="1-based mu positions")
    p.add_argument("--wall-J", default="", help="1-based nu positions")
    p.add_argument("--wall-t", type=int, required=True,
                   help="insertion label of the wall")
    _add_common(p)
    p.set_defaults(func=cmd_wall_cross)

    p = sub.add_parser("cutjoin-verify",
                       help="one evolution step of the cut-and-join PDE")
    p.add_argument("--nu", default="", help="comma-separated nu parts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", default="1")
    p.add_argument("--genus", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_cutjoin_verify)

    p = sub.add_parser("oracle-verify",
                       help="engine vs direct Fock oracle sweep")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--max-s", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("tree-dump",
                       help="DOT digraph of the commutation recursion")
    _add_query_flags(p)
    p.add_argument("--caps", default=None,
                   help="per-insertion truncation override")
    p.add_argument("--max-nodes", type=int, default=400)
    _add_common(p)
    p.set_defaults(func=cmd_tree_dump)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default all)")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
