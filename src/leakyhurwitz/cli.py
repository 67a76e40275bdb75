"""Command-line front end: single numbers and batch tables, and chamber
fits, wall crossings, verification suites and DOT dumps of the
commutation recursion, whose handlers live in commands.py and load only
when one of them runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 the
reader closed stdout (128 + SIGPIPE, as the shell reports it).  Records
are emitted as plain text, one-object-per-line JSON, or CSV with the
header mu,nu,k,r,s,connected,num,den,genus,method,ms.  Exact values are
always decimal-string numerator/denominator pairs, never floats.
Output ordering (records and map keys) is deterministic for fixed
inputs; only the timing field varies between runs.
"""
import argparse
import contextlib
import os
import sys

from .numbers import (
    HurwitzCache,
    HurwitzQuery,
    _fock_cheaper,
    bounded_profiles,
    evaluate,
    make_query,
    twice_genus,
)

CACHE_ENV = "LEAKYHURWITZ_CACHE"
RECORD_FORMATS = ("plain", "json", "csv")
REPORT_FORMATS = ("plain", "json")


class UsageError(Exception):
    """Invalid command input; the message names the offending flag."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are usage errors, not exits."""

    def error(self, message):
        raise UsageError(message)


# -- parsing helpers -----------------------------------------------------

def parse_list(text, flag, expected="a positive integer part", low=1):
    """Comma-separated integers of at least low, by default partition
    parts; a blank string is the empty list.  A bad token is a usage
    error naming flag, its 1-based position and what was expected."""
    if not text.strip():
        return ()
    out = []
    for pos, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok.isdecimal() or int(tok) < low:
            raise UsageError(f"{flag}: position {pos}: expected {expected}, "
                             f"got {tok!r}")
        out.append(int(tok))
    return tuple(out)


def resolve_s(args, m, n):
    """The insertion count, either given or derived from the genus.

    Every subcommand that takes --r calls this first, so --r is also
    checked here.
    """
    if args.r < 1:
        raise UsageError(f"--r: must be >= 1, got {args.r}")
    if args.s != "auto":
        if getattr(args, "genus", None) is not None:
            raise UsageError("--genus: derives s only with --s auto")
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


@contextlib.contextmanager
def open_cache(args):
    """Context manager for the cache --cache or $LEAKYHURWITZ_CACHE names
    (None without one).  A path that cannot be read is a usage error
    before any work; one that cannot be written is a usage error at the
    first value the cache has to store."""
    flag, path = "--cache", args.cache
    if path is None:
        flag, path = f"${CACHE_ENV}", os.environ.get(CACHE_ENV)
    if not path:
        yield None
        return
    try:
        cache = HurwitzCache(path)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot open cache file {path!r}: "
                         f"{exc.strerror}") from None
    try:
        yield cache
    except OSError as exc:
        if exc.filename != path:
            raise
        raise UsageError(f"{flag}: cannot write cache file {path!r}: "
                         f"{exc.strerror}") from None
    finally:
        cache.close()


# -- records -------------------------------------------------------------

CSV_HEADER = "mu,nu,k,r,s,connected,num,den,genus,method,ms\n"


def emit_records(results, fmt, out):
    """Write one record per result, each as soon as it is formatted.
    Every field is an int, a bool, an ASCII decimal string, a fixed
    identifier or a float written by repr, so no field needs escaping
    and a JSON row is the bytes of json.dumps with compact separators."""
    if fmt == "csv":
        out.write(CSV_HEADER)
    for res in results:
        q, value, ms = res.query, res.value, round(res.ms, 3)
        g2 = twice_genus(q)
        genus = f"{g2}/2" if g2 & 1 else g2 >> 1
        conn = "true" if q.connected else "false"
        if fmt == "json":
            out.write(f'{{"mu":[{",".join(map(str, q.mu))}],'
                      f'"nu":[{",".join(map(str, q.nu))}],"k":{q.k},'
                      f'"r":{q.r},"s":{q.s},"connected":{conn},'
                      f'"num":"{value.numerator}",'
                      f'"den":"{value.denominator}","genus":"{genus}",'
                      f'"method":"{res.method}","ms":{ms!r}}}\n')
        elif fmt == "csv":
            out.write(f"{' '.join(map(str, q.mu))},{' '.join(map(str, q.nu))},"
                      f"{q.k},{q.r},{q.s},{conn},{value.numerator},"
                      f"{value.denominator},{genus},{res.method},{ms!r}\n")
        else:
            kind = "connected" if q.connected else "disconnected"
            out.write(
                f"h(mu={list(q.mu)}, nu={list(q.nu)}, k={q.k}, r={q.r}, "
                f"s={q.s}, {kind}) = {value.numerator}/{value.denominator}  "
                f"[method={res.method} genus={genus} ms={ms!r}]\n")


# -- subcommands ---------------------------------------------------------

def cmd_compute(args, out):
    mu = parse_list(args.mu, "--mu")
    nu = parse_list(args.nu, "--nu")
    s = resolve_s(args, len(mu), len(nu))
    try:
        q = make_query(mu, nu, args.k, args.r, s, args.connected)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with open_cache(args) as cache:
        res = evaluate(q, cache)
    emit_records([res], args.format, out)
    return 0


def balanced_triples(profiles, ks, s):
    """Every (mu, nu, k) with |mu| = |nu| + s k and k in the range ks:
    mu outer, nu inner, k ascending."""
    sized = [(p, sum(p)) for p in profiles]
    for mu, a in sized:
        for nu, b in sized:
            if s == 0:
                if a == b:
                    yield from ((mu, nu, k) for k in ks)
                continue
            k, rem = divmod(a - b, s)
            if rem == 0 and k in ks:
                yield mu, nu, k


def cmd_table(args, out):
    if args.max_part < 1:
        raise UsageError("--max-part: must be >= 1")
    if args.max_len < 1:
        raise UsageError("--max-len: must be >= 1")
    if args.k_min > args.k_max:
        raise UsageError("--k-min: exceeds --k-max")
    s = resolve_s(args, 0, 0)
    # shortest first, ascending within a length
    profiles = [p for length in range(args.max_len + 1)
                for p in reversed(bounded_profiles(args.max_part, length))]
    # one checked query gives r, s and connected; the profiles are
    # canonical and k an int, so each row only puts in mu, nu and k
    tail = make_query((), (), 0, args.r, s, args.connected)[3:]
    with open_cache(args) as cache:
        # without a cache file, an in-memory one serves each row whose dual
        # (nu, mu, -k) came earlier; that row still names its own route
        run = HurwitzCache() if cache is None else cache
        results = [evaluate(HurwitzQuery(mu, nu, k, *tail), run)
                   for mu, nu, k in balanced_triples(
                       profiles, range(args.k_min, args.k_max + 1), s)]
    if cache is None:
        results = [res._replace(method="fock" if _fock_cheaper(res.query)
                                else "engine")
                   if res.method == "cache" else res for res in results]
    emit_records(results, args.format, out)
    return 0


def _report(name):
    """The report subcommand handler commands.name, loaded as it runs."""
    def run(args, out):
        from . import commands
        return getattr(commands, name)(args, out)
    return run


# -- argument wiring -----------------------------------------------------

def _add_format(p, formats):
    p.add_argument("--format", choices=formats, default="plain",
                   help="output format (default plain)")


def _add_cache(p):
    p.add_argument("--cache", default=None,
                   help=f"cache file path (default ${CACHE_ENV})")


def _add_query_flags(p):
    p.add_argument("--mu", default="", help="comma-separated mu parts")
    p.add_argument("--nu", default="", help="comma-separated nu parts")
    p.add_argument("--k", type=int, required=True,
                   help="leak per insertion")
    p.add_argument("--r", type=int, default=1,
                   help="completed-cycle order r (default 1)")
    p.add_argument("--s", default="auto",
                   help="insertion count, or 'auto' with --genus")
    p.add_argument("--genus", type=int, default=None,
                   help="genus used to derive s when --s auto")


def build_parser():
    parser = _Parser(
        prog="leakyhurwitz",
        description="Exact leaky completed-cycles double Hurwitz numbers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("compute", help="one exact number")
    _add_query_flags(p)
    p.add_argument("--connected", action="store_true",
                   help="connected count (default disconnected)")
    _add_format(p, RECORD_FORMATS)
    _add_cache(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="grid of numbers over profile ranges")
    p.add_argument("--max-part", type=int, default=4)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--k-min", type=int, default=-2)
    p.add_argument("--k-max", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    _add_format(p, RECORD_FORMATS)
    _add_cache(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chamber-fit", help="exact chamber polynomial")
    _add_query_flags(p)
    _add_format(p, REPORT_FORMATS)
    p.set_defaults(func=_report("cmd_chamber_fit"))

    p = sub.add_parser("wall-cross", help="wall-crossing jump at a point")
    _add_query_flags(p)
    p.add_argument("--wall-I", default="", help="1-based mu positions")
    p.add_argument("--wall-J", default="", help="1-based nu positions")
    p.add_argument("--wall-t", type=int, required=True,
                   help="insertion label of the wall")
    _add_format(p, REPORT_FORMATS)
    p.set_defaults(func=_report("cmd_wall_cross"))

    p = sub.add_parser("cutjoin-verify",
                       help="one evolution step of the cut-and-join PDE")
    p.add_argument("--nu", default="", help="comma-separated nu parts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    _add_format(p, REPORT_FORMATS)
    p.set_defaults(func=_report("cmd_cutjoin_verify"))

    p = sub.add_parser("oracle-verify",
                       help="engine vs direct Fock oracle sweep")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--max-s", type=int, default=3)
    _add_format(p, REPORT_FORMATS)
    p.set_defaults(func=_report("cmd_oracle_verify"))

    p = sub.add_parser("tree-dump",
                       help="DOT digraph of the commutation recursion")
    _add_query_flags(p)
    p.add_argument("--caps", default=None,
                   help="per-insertion truncation override")
    p.add_argument("--max-nodes", type=int, default=400)
    p.set_defaults(func=_report("cmd_tree_dump"))

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default all)")
    p.set_defaults(func=_report("cmd_selftest"))

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: aim stdout at devnull so no flush can raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    # run leakyhurwitz.cli's main: commands.py raises that module's UsageError
    from .cli import main
    sys.exit(main())
