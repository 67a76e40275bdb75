"""Benchmark of leakyhurwitz: run one workload for a set time, check the
outputs, and print the metrics.

Run from anywhere, with the repository checkout around this directory:

    python3 perfbench/run.py --workload cold-ladder --seed 1 --seconds 40
    python3 perfbench/run.py --workload table-cache --trace 1
    python3 perfbench/run.py --selftest

A run imports the library once untimed, then runs whole rounds of the
workload's passes, one at a time and each in a fresh interpreter
(worker.py), until the next round would end after --seconds.  With
--trace 1 the first round runs untraced as the reference for the
tracing overhead, the others traced, and the run reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record, with the environment and every round, goes
to perfbench_out/results/.
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import corpus
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench_out")
WORKLOADS = ("cold-ladder", "verify-sweep", "table-cache")
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, workload, seed, trace=False):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = os.path.join(OUT, "work", f"{self.tag}-{os.getpid()}")
        self.trace_dir = os.path.join(OUT, "traces", self.tag)
        path = [os.path.join(ROOT, "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PYTHONHASHSEED="0")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.rational = None

    def worker(self, spec):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run passed its {RUN_LIMIT_S:.0f} s limit")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass {spec} passed the run's "
                             f"{RUN_LIMIT_S:.0f} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"pass {spec} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.rational = res.get("rational", self.rational)
        return res

    def round(self, number, traced):
        """One round: every pass of the workload, each in a fresh
        interpreter.  Returns per-pass work times and the round's
        set-up time (import and input building, summed over passes)."""
        base = {"seed": self.seed, "round": number, "trace": traced}
        started = time.monotonic()
        passes = {}

        def run(name, **spec):
            spec = dict(base, **spec)
            spec["trace_path"] = os.path.join(self.trace_dir,
                                              f"round{number}-{name}.jsonl")
            passes[name] = self.worker(spec)
            return passes[name]

        problems = []
        if self.workload == "cold-ladder":
            order = list(range(len(corpus.RUNGS)))
            corpus.round_rng(self.seed, number, "order").shuffle(order)
            for i in order:
                run(f"rung{i}", task="rung", index=i)
        elif self.workload == "verify-sweep":
            run("sweep", task="sweep")
            run("structure", task="structure")
        else:
            os.makedirs(self.work, exist_ok=True)
            cache = os.path.join(self.work, f"cache{number}.jsonl")
            cut = os.path.join(self.work, f"cut{number}.jsonl")
            cold = run("cold", task="table", phase="cold", cache=cache)
            for i in range(corpus.TABLE_REPLAYS):
                run(f"replay{i}", task="table", phase="replay", cache=cache)
            # the truncated-cache pass feeds no metric, so it is untraced
            run("truncated", task="table", phase="truncated", cache=cut,
                source=cache, trace=False)
            for name, res in passes.items():
                if res["digest"] not in (None, cold["digest"]):
                    problems.append(f"table {name} rows differ from the "
                                    f"cold rows")
            os.remove(cache)
            os.remove(cut)
        times = {name: res["work_s"] for name, res in passes.items()}
        walls = {name: res["wall_s"] for name, res in passes.items()}
        part_a, part_b = PARTS[self.workload]
        return {
            "round": number, "traced": traced,
            "elapsed_s": time.monotonic() - started,
            "setup_s": sum(res["setup_s"] for res in passes.values()),
            "setup_wall_s": sum(res["setup_wall_s"]
                                for res in passes.values()),
            "times": times,
            "walls": walls,
            # how much slower than the reference the machine ran
            "slowdown": statistics.mean(res["unit_s"] for res in
                                        passes.values())
                        / speed.REFERENCE_UNIT_S,
            "part_a_s": part_time(part_a, [times]),
            "part_b_s": part_time(part_b, [times]),
            "part_a_wall_s": part_time(part_a, [walls]),
            "part_b_wall_s": part_time(part_b, [walls]),
            "rss_mb": max(res["rss_mb"] for res in passes.values()),
            "attempted": sum(res["attempted"] for res in passes.values()),
            "failed": (sum(res["failed"] for res in passes.values())
                       + len(problems)),
            "wrong": [w for res in passes.values()
                      for w in res["wrong"]] + problems,
            "errors": [e for res in passes.values() for e in res["errors"]],
            "layers": (spans.merge([res["layers"] for res in passes.values()
                                    if "layers" in res])
                       if traced else None),
        }

    def run(self, seconds):
        """Whole rounds until the next one would end after `seconds`."""
        # the first import compiles the library; keep it out of set-up
        self.worker({"task": "warm"})
        start = time.monotonic()
        reference = self.round(0, False) if self.trace else None
        rounds = []
        while True:
            rounds.append(self.round(len(rounds) + 1, self.trace))
            done = [r for r in rounds + [reference] if r is not None]
            longest = max(r["elapsed_s"] for r in done)
            if time.monotonic() - start + longest > seconds:
                break
        shutil.rmtree(self.work, ignore_errors=True)
        return reference, rounds


# The passes whose work times make up part a and part b of each
# workload, as groups: a part is the sum over its groups of the median
# time of the group's passes, pooled over the rounds of a run, so one
# slow pass moves only its own term.  The table's replay runs several
# times a round because one replay is short (about 0.4 s) and noisy.
PARTS = {
    "cold-ladder": (
        [[f"rung{i}"] for i in range(len(corpus.ONE_PART_RUNGS))],
        [[f"rung{i}"] for i in range(len(corpus.ONE_PART_RUNGS),
                                     len(corpus.RUNGS))]),
    "verify-sweep": ([["sweep"]], [["structure"]]),
    "table-cache": ([["cold"]], [[f"replay{i}" for i in
                                  range(corpus.TABLE_REPLAYS)]]),
}


def part_time(groups, rounds_times):
    """Sum over groups of the median time of the group's passes, pooled
    over rounds_times (one {pass name: time} per round)."""
    return sum(statistics.median(t[name] for t in rounds_times
                                 for name in group)
               for group in groups)


def end_to_end(workload, rounds):
    """Medians over the rounds of a run."""
    part_a, part_b = PARTS[workload]
    times = [r["times"] for r in rounds]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "part_a_s": (part_time(part_a, times), "s"),
        "part_b_s": (part_time(part_b, times), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds),
                        "MB"),
    }


def per_layer(reference, rounds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    per_round = [spans.layer_metrics(r["layers"]) for r in rounds]
    ref_work = reference["part_a_s"] + reference["part_b_s"]
    # median_low: every value is one round's total, counts stay whole
    out = {name: (statistics.median_low(m[name] for m in per_round),
                  units[name]) for name in per_round[0]}
    out["trace.overhead_ratio"] = (statistics.median(
        (r["part_a_s"] + r["part_b_s"]) / ref_work for r in rounds),
        units["trace.overhead_ratio"])
    return out


def environment(runner):
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "rational": runner.rational}


def main_run(args):
    runner = Runner(args.workload, args.seed, bool(args.trace))
    reference, rounds = runner.run(args.seconds)
    counted = ([reference] if reference else []) + rounds
    wrong = [w for r in counted for w in r["wrong"]]
    metrics = (per_layer(reference, rounds) if args.trace
               else end_to_end(args.workload, rounds))
    env = environment(runner)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "rounds": counted, "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", runner.tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"rational {env['rational']}")
    for r in counted:
        print(f"round {r['round']}{' traced' if r['traced'] else ''}: "
              f"part a {r['part_a_s']:.3f} s, part b {r['part_b_s']:.3f} s "
              f"(wall {r['part_a_wall_s']:.3f} s, {r['part_b_wall_s']:.3f} "
              f"s; slow-down {r['slowdown']:.2f}), "
              f"{r['attempted']} attempted, {r['failed']} failed")
    for line in wrong + [e for r in counted for e in r["errors"]][:5]:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
        "metrics": metrics}))


def selftest():
    """Show that the checks can fail: a planted wrong value in each kind
    of pass, at tiny sizes, must come back as one failed operation."""
    runner = Runner("selftest", 0)
    problems = []
    if (corpus.one_part_product(3), corpus.one_part_product(4)) != (9, 234):
        problems.append("closed product misses the anchors 9 and 234")
    if corpus.sweep_count(2) != len(corpus.sweep_queries(2)):
        problems.append("sweep count disagrees with the enumeration")
    os.makedirs(runner.work, exist_ok=True)
    tiny_box = dict(corpus.TABLE_BOX, max_part=2, max_len=2)
    cases = [
        {"task": "rung", "index": 0},
        {"task": "sweep", "max_size": 1},
        {"task": "structure", "limit": 1},
        {"task": "table", "phase": "cold", "box": tiny_box,
         "cache": os.path.join(runner.work, "cache.jsonl")},
    ]
    for case in cases:
        for plant in (False, True):
            res = runner.worker(dict(case, seed=0, round=0, plant=plant))
            want = 1 if plant else 0
            if res["failed"] != want or len(res["wrong"]) != want:
                problems.append(f"{case} plant={plant}: {res['failed']} "
                                f"failed, wrong={res['wrong']}")
            else:
                print(f"{case['task']} plant={plant}: {res['failed']} failed "
                      f"of {res['attempted']}")
    shutil.rmtree(runner.work, ignore_errors=True)
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the checks catch a wrong value")
    args = parser.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills the
    # pass it is waiting on before the run exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "leakyhurwitz",
                                       "__init__.py")):
        print(f"no leakyhurwitz sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        main_run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
