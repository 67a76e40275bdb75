"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<json spec>'

run.py starts one worker per pass, so no memo of the library carries over
from one pass to the next.  The worker imports leakyhurwitz and builds
its inputs (set-up, timed apart), runs the timed work, then checks the
outputs untimed and prints one JSON object.  With "trace" in the spec
the timed work runs under spans.Tracer and the spans are written to
spec["trace_path"].

Specs: {"task": "warm"}, {"task": "rung", "index": i},
{"task": "sweep"}, {"task": "structure"}, {"task": "table", "phase":
"cold" | "replay" | "truncated", "cache": path}.  Every task but warm
also takes "seed" and "round"; "plant": true corrupts the first checked
value, which the checks must report (see run.py --selftest).
"""
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
from fractions import Fraction

import corpus
import spans
import speed


class Tally:
    """Operations attempted and failed in one pass.

    An operation fails when it raises, or when a check finds a wrong
    value; wrong values are also listed, so run.py can clear `correct`.
    """

    def __init__(self, plant):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self._plant = plant

    def error(self, what, exc, ops=1):
        self.failed += ops
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, what, got, want):
        """One check of a value against its reference."""
        if self._plant:
            self._plant = False
            got = got + 1
        if got != want:
            self.failed += 1
            if len(self.wrong) < 10:
                self.wrong.append(f"{what}: got {got}, want {want}")

    def require(self, what, ok):
        self.check(what, bool(ok), True)


def _times(probe):
    """A pass's work time at the reference speed, its wall time and the
    mean time of the probe's unit (see speed.py)."""
    return {"work_s": probe.scaled_s, "wall_s": probe.wall_s,
            "unit_s": probe.unit_s}


_FAILED = {"work_s": 0.0, "wall_s": 0.0, "unit_s": speed.REFERENCE_UNIT_S}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up: import the library and build a pass's inputs ----------------

def build(lh, task, spec):
    if task == "rung":
        mu, nu, k, r, s, connected = corpus.RUNGS[spec["index"]]
        return lh.numbers.make_query(mu, nu, k, r, s, connected)
    if task == "sweep":
        return corpus.sweep_queries(spec.get("max_size",
                                             corpus.SWEEP_MAX_SIZE))
    if task == "structure":
        return build_structure(lh, spec)
    if task == "table":
        return build_table(spec)
    raise ValueError(f"unknown task {task!r}")


def build_structure(lh, spec):
    ch = lh.chambers
    limit = spec.get("limit")
    bases = [(r, s, ch.lattice_point(mu, nu, k))
             for r, s, mu, nu, k in corpus.CHAMBER_BASES[:limit]]
    rng = random.Random(corpus.PAIR_SEARCH_SEED)
    walls = []
    for I, J, t, m, n, s, extra in corpus.WALLS[:limit]:
        w = ch.wall(I, J, t)
        plus, minus = lh.verify.find_adjacent_pair(w, m, n, s, rng)
        double = ch.lattice_point([2 * p for p in plus.mu],
                                  [2 * p for p in plus.nu], 2 * plus.k)
        points = [plus, minus, double] + [ch.lattice_point(*e)
                                          for e in extra]
        walls.append((w, s, plus, minus, points))
    return bases, walls, corpus.CUTJOIN_STEPS[:limit]


def build_table(spec):
    box = spec.get("box", corpus.TABLE_BOX)
    path = spec["cache"]
    if spec["phase"] == "cold" and os.path.exists(path):
        os.remove(path)
    if spec["phase"] == "truncated":
        # a writer killed during an append: the last record cut mid-line
        shutil.copyfile(spec["source"], path)
        with open(path, "rb") as fh:
            data = fh.read()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        cut = last + (len(data) - last) // 2
        with open(path, "wb") as fh:
            fh.write(data[:cut])
    return corpus.table_argv(path, box), corpus.table_queries(box)


# -- timed work and its checks -------------------------------------------

def run_rung(lh, spec, q, tally, tracer):
    tally.attempted += 1
    try:
        with speed.SpeedProbe() as probe:
            res = lh.numbers.evaluate(q)
    except Exception as exc:
        tally.error(f"rung {q}", exc)
        return dict(_FAILED, rss_mb=_rss_mb())
    rss = _rss_mb()
    if tracer:
        tracer.sample_memos()
        tracer.on = False
    if spec["index"] < len(corpus.ONE_PART_RUNGS):
        tally.check(f"rung {q} closed product", res.value,
                    corpus.one_part_product(len(q.nu)))
    # one mu part and k > 0 leave no nu-only block, and the connected
    # multi-part rung lies inside a chamber: connected = disconnected
    tally.check(f"rung {q} oracle", res.value,
                lh.oracle.oracle_disconnected(q.mu, q.nu, q.k, q.r, q.s))
    return dict(_times(probe), rss_mb=rss)


def run_sweep(lh, spec, queries, tally, tracer):
    engine = lh.numbers.disconnected_hurwitz
    fock_route = lh.oracle.oracle_disconnected
    pairs = []
    with speed.SpeedProbe() as probe:
        for q in queries:
            try:
                pairs.append((q, engine(*q), fock_route(*q)))
            except Exception as exc:
                tally.error(f"sweep {q}", exc)
            if tracer:
                tracer.sample_memos()
    rss = _rss_mb()
    if tracer:
        tracer.on = False
    tally.attempted += len(queries)
    for q, got, want in pairs:
        tally.check(f"sweep {q} engine vs oracle", got, want)
    tally.require("sweep query count equals p(a) p(b) count",
                  len(queries) == corpus.sweep_count(
                      spec.get("max_size", corpus.SWEEP_MAX_SIZE)))
    return dict(_times(probe), rss_mb=rss)


def run_structure(lh, spec, inputs, tally, tracer):
    ch, cutjoin = lh.chambers, lh.cutjoin
    bases, walls, steps = inputs
    rng = corpus.round_rng(spec["seed"], spec["round"], "fits")
    fits, crossings, reports = [], [], []

    def fit(point, r, s):
        tally.attempted += 1
        try:
            return ch.fit_chamber_polynomial(point, r, s, rng=rng)
        except ch.ChamberFitError as exc:   # a held-out point disagreed
            tally.require(f"fit at {point}: {exc}", False)
        except Exception as exc:
            tally.error(f"fit at {point}", exc)
        return None

    with speed.SpeedProbe() as probe:
        for r, s, base in bases:
            fits.append((r, s, base, fit(base, r, s)))
            if tracer:
                tracer.sample_memos()
        for w, s, plus, minus, points in walls:
            f_plus, f_minus = fit(plus, 1, s), fit(minus, 1, s)
            for point in points:
                tally.attempted += 1
                if f_plus is None or f_minus is None:
                    tally.failed += 1
                    continue
                try:
                    crossings.append((w, point, (
                        ch.wall_crossing_series(w, point, 1, s),
                        f_plus.evaluate(point.mu, point.nu)
                        - f_minus.evaluate(point.mu, point.nu),
                        ch.wall_crossing_genus0(w, point))))
                except Exception as exc:
                    tally.error(f"wall {w} at {point}", exc)
                if tracer:
                    tracer.sample_memos()
        for step in steps:
            tally.attempted += 1
            try:
                reports.append(cutjoin.verify_cut_and_join(*step))
            except Exception as exc:
                tally.error(f"cut-and-join {step}", exc)
            if tracer:
                tracer.sample_memos()
    rss = _rss_mb()
    if tracer:
        tracer.on = False
    for r, s, base, poly in fits:
        if poly is not None:
            bound = (r + 1) * s + 1 - len(base.mu) - len(base.nu)
            tally.require(f"fit at {base}: degree bound {bound}",
                          poly.degree == bound
                          and poly.realized_degree() <= bound)
    for w, point, (series, jump, genus0) in crossings:
        tally.check(f"wall {w} at {point}: series vs fitted jump",
                    series, jump)
        tally.check(f"wall {w} at {point}: series vs genus-zero form",
                    series, genus0)
    for rep in reports:
        tally.require(f"cut-and-join nu={rep['nu']} k={rep['k']} "
                      f"r={rep['r']} s={rep['s']}", rep["ok"])
    return dict(_times(probe), rss_mb=rss)


def row_digest(rows):
    """Digest of the rows in output order, without the ms and method
    fields, which may differ between a cold run and a replay."""
    h = hashlib.sha256()
    for rec in rows:
        kept = {key: v for key, v in rec.items() if key not in ("ms",
                                                                "method")}
        h.update(json.dumps(kept, sort_keys=True).encode())
    return h.hexdigest()


def run_table(lh, spec, inputs, tally, tracer):
    argv, expected = inputs
    phase = spec["phase"]
    ops = 1 if phase == "truncated" else len(expected)
    tally.attempted += ops
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), speed.SpeedProbe() as probe:
            rc = lh.cli.main(argv)
    except Exception as exc:
        tally.error(f"table {phase}", exc, ops)
        return dict(_FAILED, rss_mb=_rss_mb(), digest=None)
    rss = _rss_mb()
    if tracer:
        tracer.sample_memos()
        tracer.on = False
        tracer.counts["cli_rows"] = out.getvalue().count("\n")
        if phase == "cold":
            tracer.counts["cache_file_bytes"] = os.path.getsize(spec["cache"])
    if rc != 0:
        tally.failed += ops
        tally.errors.append(f"table {phase}: exit code {rc}")
        return dict(_times(probe), rss_mb=rss, digest=None)
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    if phase != "truncated":
        got = sorted((tuple(rec["mu"]), tuple(rec["nu"]), rec["k"])
                     for rec in rows)
        tally.require(f"table {phase}: rows are the balanced queries "
                      f"of the box", got == expected)
    if phase == "cold":
        rng = corpus.round_rng(spec["seed"], spec["round"], "table")
        for rec in rng.sample(rows, min(corpus.TABLE_ORACLE_SAMPLE,
                                        len(rows))):
            want = lh.oracle.oracle_disconnected(
                tuple(rec["mu"]), tuple(rec["nu"]), rec["k"], rec["r"],
                rec["s"])
            tally.check(f"table row {rec['mu']}/{rec['nu']} k={rec['k']}",
                        Fraction(int(rec["num"]), int(rec["den"])), want)
    if phase == "replay":
        tally.require("table replay: every row served from the cache",
                      all(rec["method"] == "cache" for rec in rows))
    return dict(_times(probe), rss_mb=rss, digest=row_digest(rows))


RUN = {"rung": run_rung, "sweep": run_sweep, "structure": run_structure,
       "table": run_table}


def main():
    spec = json.loads(sys.argv[1])
    task = spec["task"]
    if task == "warm":   # compiles the library's modules; nothing timed
        import leakyhurwitz.cli  # noqa: F401
        print(json.dumps({}))
        return
    with speed.SpeedProbe() as setup:
        import leakyhurwitz as lh
        import leakyhurwitz.cli  # noqa: F401  (the CLI user's import)
        inputs = build(lh, task, spec)
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer(lh)
        tracer.install()
        tracer.on = True
    tally = Tally(spec.get("plant", False))
    result = RUN[task](lh, spec, inputs, tally, tracer)
    result.update(setup_s=setup.scaled_s, setup_wall_s=setup.wall_s,
                  attempted=tally.attempted,
                  failed=tally.failed, wrong=tally.wrong,
                  errors=tally.errors,
                  rational=f"{type(lh.Q(1)).__module__}."
                           f"{type(lh.Q(1)).__name__}")
    if tracer:
        tracer.on = False
        result["layers"] = tracer.summary()
        tracer.write(spec["trace_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
