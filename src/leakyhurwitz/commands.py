"""The six report subcommands, which cli.py wires into its parser and
loads only when one of them runs, so compute and table never compile
them.  Each imports chambers, cutjoin, fock or verify itself, so it
loads only the modules it runs.
"""
import json
import sys
import time

from .cli import UsageError, parse_list, resolve_s


def parse_indices(text, flag, length, side):
    """Comma-separated 1-based part positions for a wall index set."""
    idx = parse_list(text, flag, "a 1-based part position")
    for pos, i in enumerate(idx, start=1):
        if i > length:
            raise UsageError(f"{flag}: position {pos}: part position {i} "
                             f"exceeds the {length} {side}-parts")
    return frozenset(i - 1 for i in idx)


def parse_caps(text, r, s):
    caps = parse_list(text, "--caps", "a nonnegative integer", 0)
    if len(caps) != s:
        raise UsageError(f"--caps: need one cap per insertion "
                         f"({s}), got {len(caps)}")
    if any(c < r + 1 for c in caps):
        raise UsageError(f"--caps: every cap must be >= r+1 = {r + 1} "
                         f"to keep the extracted coefficient")
    return caps


def cmd_chamber_fit(args, out):
    from .chambers import (ChamberFitError, fit_chamber_polynomial,
                           format_chamber_report, lattice_point)
    mu = parse_list(args.mu, "--mu")
    nu = parse_list(args.nu, "--nu")
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
    except ChamberFitError as exc:
        print(f"chamber fit failed: {exc}", file=sys.stderr)
        return 1
    ms = round((time.perf_counter() - start) * 1000.0, 3)
    if args.format == "json":
        terms = {mono: f"{c.numerator}/{c.denominator}"
                 for mono, c in poly.named_terms()}
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
    else:
        out.write(format_chamber_report(poly) + "\n")
    return 0


def cmd_wall_cross(args, out):
    from .chambers import (delta_of, format_wall_report, lattice_point, wall,
                           wall_crossing_genus0, wall_crossing_series)
    mu = parse_list(args.mu, "--mu")
    nu = parse_list(args.nu, "--nu")
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
    else:
        out.write(format_wall_report(w, point, value, delta) + "\n")
    return status


def cmd_cutjoin_verify(args, out):
    from .cutjoin import verify_cut_and_join
    nu = parse_list(args.nu, "--nu")
    s = resolve_s(args, 0, 0)
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
    from . import verify as verify_mod
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
    from .fock import commutation_tree_dot, hurwitz_sequence
    mu = parse_list(args.mu, "--mu")
    nu = parse_list(args.nu, "--nu")
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
    from . import verify as verify_mod
    numbers = sorted(set(parse_list(args.criteria or "", "--criteria",
                                    "a criterion number", 0))) or None
    try:
        reports = verify_mod.run_all(numbers)
    except ValueError as exc:
        raise UsageError(f"--criteria: {exc}") from None
    all_ok = True
    for rep in reports:
        all_ok = all_ok and rep.ok
        print(verify_mod.format_report(rep), file=out, flush=True)
    return 0 if all_ok else 1
