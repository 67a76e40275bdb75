"""Span tracing of the library's public functions, from outside the library.

A Tracer wraps each listed function in every leakyhurwitz module that
imported it, and TruncSeries.__mul__ on the class.  Each wrapped call
records a span (id, parent, name, thread, start, end).  Self time is a
span's duration minus the part of it its child spans cover; children in
other threads (the table's worker pool) are merged as intervals.
Totals per name count only the outermost of nested same-name calls, so
a recursive function is not counted twice.  Spans stay in memory and
are written out when the pass ends.
"""
import json
import os
import sys
import threading
import time

# (module, attribute): plain functions, patched wherever imported.
FUNCTIONS = (
    ("series", "sigma_series"),
    ("fock", "connected_hurwitz"),
    ("fock", "disconnected_vev_series"),
    ("numbers", "disconnected_hurwitz"),
    ("numbers", "evaluate"),
    ("oracle", "oracle_disconnected"),
    ("oracle", "apply_insertion_coeff"),
    ("chambers", "fit_chamber_polynomial"),
    ("chambers", "sign_vector"),
    ("chambers", "wall_crossing_series"),
    ("chambers", "wall_crossing_genus0"),
    ("cutjoin", "verify_cut_and_join"),
    ("cutjoin", "apply_Q"),
    ("cutjoin", "generating_slice"),
    ("cli", "main"),
)
# (module, class, attributes): methods patched on the class.
METHODS = (
    ("series", "TruncSeries", ("__mul__", "__rmul__")),
    ("numbers", "HurwitzCache", ("__init__", "lookup", "store")),
)
SPAN_CAP = 50000


class Tracer:
    def __init__(self, lh):
        self.lh = lh
        self.on = False
        self.spans = []
        self.dropped = 0
        self.totals = {}      # name -> [calls, total_s, self_s]
        self.counts = {"mul_pairs": 0, "mul_out_terms": 0, "cache_hits": 0,
                       "states_peak": 0, "memo_peak": 0, "conn_cache_peak": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._next_id = 0
        self._sigma_misses0 = self._sigma_misses()

    # -- patching -----------------------------------------------------

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if name == "leakyhurwitz" or name.startswith("leakyhurwitz.")]
        for modname, attr in FUNCTIONS:
            orig = getattr(getattr(self.lh, modname), attr)
            wrapped = self._wrap(attr, orig, self._after.get(attr))
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
        for modname, clsname, attrs in METHODS:
            cls = getattr(getattr(self.lh, modname), clsname)
            for attr in attrs:
                orig = cls.__dict__[attr]
                name = f"{clsname}.{'__mul__' if attr == '__rmul__' else attr}"
                setattr(cls, attr, self._wrap(name, orig,
                                              self._after.get(name)))
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            if stack:
                parent, foreign = stack[-1], False
            else:
                main = tracer._main_stack
                parent = main[-1] if main and main is not stack else None
                foreign = parent is not None
            outer = all(frame[1] != name for frame in stack)
            # frame: id, name, covered-by-children seconds, foreign intervals
            frame = [sid, name, 0.0, []]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, foreign, outer, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, foreign, outer, start, end):
        sid, name, covered, intervals = frame
        if intervals:
            covered += _union_length(intervals)
        duration = end - start
        with self._lock:
            if parent is not None:
                if foreign:
                    parent[3].append((start, end))
                else:
                    parent[2] += duration
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            if outer:
                tot[1] += duration
            tot[2] += duration - covered
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, None if parent is None else parent[0],
                                   name, threading.get_ident(), start, end))
            else:
                self.dropped += 1

    # -- counters read from results and memos --------------------------

    def _after_mul(self, args, result):
        a, b = args
        pairs = len(a.terms) * (len(b.terms) if isinstance(b, type(a)) else 1)
        with self._lock:
            self.counts["mul_pairs"] += pairs
            self.counts["mul_out_terms"] += len(result.terms)

    def _after_lookup(self, args, result):
        if result is not None:
            with self._lock:
                self.counts["cache_hits"] += 1

    def _after_insertion(self, args, result):
        with self._lock:
            if len(result) > self.counts["states_peak"]:
                self.counts["states_peak"] = len(result)

    _after = {"TruncSeries.__mul__": _after_mul,
              "HurwitzCache.lookup": _after_lookup,
              "apply_insertion_coeff": _after_insertion}

    def sample_memos(self):
        """Read the engine's memo sizes; called after each operation."""
        memo = len(getattr(self.lh.fock, "_MEMO", ()))
        conn = len(getattr(self.lh.numbers, "_CONN_CACHE", ()))
        self.counts["memo_peak"] = max(self.counts["memo_peak"], memo)
        self.counts["conn_cache_peak"] = max(self.counts["conn_cache_peak"],
                                             conn)

    def _sigma_misses(self):
        cached = getattr(self.lh.series, "_sigma_series", None)
        info = getattr(cached, "cache_info", None)
        return info().misses if info is not None else 0

    # -- output ---------------------------------------------------------

    def summary(self):
        counts = dict(self.counts)
        counts["sigma_builds"] = self._sigma_misses() - self._sigma_misses0
        return {"totals": self.totals, "counts": counts,
                "spans": len(self.spans), "spans_dropped": self.dropped}

    def write(self, path):
        """One JSON header line, then one [id, parent, name, thread,
        start_us, end_us] array per span; times count from the first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((span[4] for span in self.spans), default=0.0)
        threads = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "thread",
                                            "start_us", "end_us"],
                                 "dropped": self.dropped}) + "\n")
            for sid, parent, name, tid, start, end in self.spans:
                tid = threads.setdefault(tid, len(threads))
                fh.write(json.dumps([sid, parent, name, tid,
                                     round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1)]) + "\n")


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(raw):
    """Per-layer metrics from a round's summed tracer output."""
    totals, counts = raw["totals"], raw["counts"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    lookups = calls("HurwitzCache.lookup")
    return {
        "series.mul_calls": calls("TruncSeries.__mul__"),
        "series.mul_pairs": counts["mul_pairs"],
        "series.mul_out_terms": counts["mul_out_terms"],
        "series.mul_s": seconds("TruncSeries.__mul__"),
        "series.sigma_calls": calls("sigma_series"),
        "series.sigma_builds": counts["sigma_builds"],
        "fock.connected_calls": calls("connected_hurwitz"),
        "fock.connected_self_s": self_s("connected_hurwitz"),
        "fock.memo_entries_peak": counts["memo_peak"],
        "fock.disconnected_vev_s": seconds("disconnected_vev_series"),
        "numbers.assembly_calls": calls("disconnected_hurwitz"),
        "numbers.assembly_self_s": self_s("disconnected_hurwitz"),
        "numbers.conn_cache_entries_peak": counts["conn_cache_peak"],
        "numbers.evaluate_calls": calls("evaluate"),
        "numbers.evaluate_s": seconds("evaluate"),
        "numbers.cache_load_s": seconds("HurwitzCache.__init__"),
        "numbers.cache_lookups": lookups,
        "numbers.cache_hit_ratio": (counts["cache_hits"] / lookups
                                    if lookups else 0.0),
        "numbers.cache_store_s": seconds("HurwitzCache.store"),
        "numbers.cache_file_bytes": counts.get("cache_file_bytes", 0),
        "oracle.calls": calls("oracle_disconnected"),
        "oracle.s": seconds("oracle_disconnected"),
        "oracle.insertion_applies": calls("apply_insertion_coeff"),
        "oracle.states_peak": counts["states_peak"],
        "chambers.fit_calls": calls("fit_chamber_polynomial"),
        "chambers.fit_s": seconds("fit_chamber_polynomial"),
        "chambers.sign_vector_calls": calls("sign_vector"),
        "chambers.sign_vector_s": seconds("sign_vector"),
        "chambers.wall_crossing_s": (seconds("wall_crossing_series")
                                     + seconds("wall_crossing_genus0")),
        "cutjoin.steps": calls("verify_cut_and_join"),
        "cutjoin.apply_q_s": seconds("apply_Q"),
        "cutjoin.slice_s": seconds("generating_slice"),
        "cli.rows": counts.get("cli_rows", 0),
        "cli.table_self_s": self_s("main"),
    }


PEAK_COUNTS = ("states_peak", "memo_peak", "conn_cache_peak",
               "cache_file_bytes")


def merge(summaries):
    """Sum the tracer output of a round's passes (peaks take the max)."""
    totals, counts = {}, {}
    for summ in summaries:
        for name, (n, s, self_) in summ["totals"].items():
            tot = totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += n
            tot[1] += s
            tot[2] += self_
        for key, value in summ["counts"].items():
            if key in PEAK_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    for key in ("mul_pairs", "mul_out_terms", "cache_hits", "sigma_builds",
                "cli_rows") + PEAK_COUNTS:
        counts.setdefault(key, 0)
    return {"totals": totals, "counts": counts}
