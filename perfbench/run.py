#!/usr/bin/env python3
"""Benchmark of the bounded-synthesis pipeline on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each workload is a closed loop: one query at a time, the next one only after
the previous verdict. A pass is one sweep over the workload's queries, and
timings are medians over the passes of a run. A run makes
round(seconds / nominal pass time) passes, at least one, so that a given
`--seconds` gives every version of the program the same work and the tail
percentile is the same percentile on both sides of a comparison.
Every verdict is checked against an answer that does not come from the code
under test, outside the timed region.

The run pins itself and its children to one core, and every end-to-end time is
scaled to a fixed speed of that core, measured while the pass runs (speed.py).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` one untraced pass runs first, then two
passes with span recording (see spans.py), and the JSON carries the per-layer
metrics instead. Spans are written to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Solver time limit per call, passed through the public `timeout` parameter.
# The slowest call today is about 9 s (arbiter-3-prompt at (3,2)).
QUERY_TIMEOUT_S = 30
# Set-ups per run: the run's own and four in fresh interpreters.
SETUP_SAMPLES = 5
# Pass time of each workload at the nominal speed of speed.py (2-core VM).
NOMINAL_PASS_S = {"arbiter-table": 19.0, "synth-search": 12.5, "verify-random": 7.8}

# The prompt-arbiter table as the paper gives it (instance -> (n, m, verdict)).
# A row that the bench decides one system state away ("slack") still matches,
# and is counted in bench.slack_retries.
ARBITER_ROWS = {
    "arbiter-2-full-prompt": ((3, 1, "unsat"), (3, 2, "sat")),
    "arbiter-2-prompt": ((2, 1, "unsat"), (2, 2, "sat")),
    "arbiter-3-prompt": ((3, 1, "unsat"), (3, 2, "sat")),
}


@dataclass(frozen=True)
class SearchSpec:
    name: str
    file: str
    max_system: int
    max_exists: int
    first_sat: tuple  # the (n, m) point where search must stop
    lasso_bound: int  # reference evaluator bound for the returned machine


SEARCH_SPECS = (
    # README demo: quantified proposition, needs an existential generator
    SearchSpec("demo", "demo.hq", 3, 3, (2, 2), 2),
    # two universal copies, no generator; the largest encodes of the workload
    SearchSpec("arbiter2-k2", "arbiter2_k2.hq", 4, 1, (4, 1), 1),
)

# verify-random: random machines per state count 4..16, per spec
RANDOM_SIZES = range(4, 17)
RANDOM_PER_SIZE = {"arbiter3-full": 6, "arbiter2-k2": 4}


class BenchError(Exception):
    """The benchmark cannot measure this checkout (not a verdict of the program)."""


@dataclass
class Query:
    id: str
    seconds: float
    verdict: str  # "sat", "unsat" or "failed"
    detail: str = ""
    window: tuple = None  # (start, end) in perf_counter time, for the speed factor
    factor: float = 1.0   # core speed over the window / nominal, set by measure_pass


@dataclass
class Judged:
    queries: list
    errors: list       # oracle disagreements: wrong verdicts or failed checks
    slack: int = 0     # arbiter rows decided only by the one-state retry


def _load_spec(file):
    from hypersynth.formula import parse

    return parse((HERE / "specs" / file).read_text(encoding="utf-8"))


def _failed(qid, seconds, err, window=None) -> Query:
    return Query(qid, seconds, "failed", f"{type(err).__name__}: {err}", window)


# ---------------------------------------------------------------------------
# workloads: the constructor is the set-up, run_pass is timed, judge is not


class CallClock:
    """Records (args, start, end, result or exception) of each call of a module-level function."""

    def __init__(self, module, attr):
        self.records = []
        orig = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                res = orig(*args, **kwargs)
            except Exception as e:
                self.records.append((args, t0, time.perf_counter(), e))
                raise
            self.records.append((args, t0, time.perf_counter(), res))
            return res

        setattr(module, attr, timed)


class ArbiterTable:
    """`bench.run_suite` on the default selection, as `hypersynth bench` runs it."""

    def __init__(self, seed):
        from hypersynth import bench

        self.bench = bench
        self.tracer = None
        self.clock = None
        if set(bench.DEFAULT_SELECTION) != set(ARBITER_ROWS):
            raise BenchError(f"default selection {bench.DEFAULT_SELECTION} differs from the oracle's rows")

    def run_pass(self):
        if self.clock is None:
            # the bench times its rows itself; its solve calls give each row's interval
            self.clock = CallClock(self.bench, "solve_at_bounds")
        self.clock.records = []
        report = self.bench.run_suite(self.bench.DEFAULT_SELECTION, timeout=QUERY_TIMEOUT_S)
        return report, self.clock.records

    @staticmethod
    def _row_windows(report, records) -> dict:
        """(instance, n, m) -> interval from the row's solve at its own bounds to
        the last one-state retry before the next row's."""
        starts, i = [], 0
        for r in report.reports:
            for b in r.bounds:
                j = next((k for k in range(i, len(records)) if records[k][0][1:3] == (b.n, b.m)), None)
                if j is not None:
                    starts.append((j, (r.name, b.n, b.m)))
                    i = j + 1
        ends = [j - 1 for j, _ in starts[1:]] + [len(records) - 1]
        return {key: (records[j][1], records[end][2]) for (j, key), end in zip(starts, ends)}

    def judge(self, raw) -> Judged:
        report, records = raw
        windows = self._row_windows(report, records)
        out = Judged([], [])
        by_name = {r.name: r for r in report.reports}
        for name, rows in ARBITER_ROWS.items():
            r = by_name.get(name)
            got = {(b.n, b.m): b for b in r.bounds} if r else {}
            for n, m, expected in rows:
                qid = f"{name}({n},{m})"
                window = windows.get((name, n, m))
                b = got.pop((n, m), None)
                if b is None:
                    out.queries.append(Query(qid, 0.0, "failed", r.error if r else "instance missing", window))
                    continue
                if b.verdict not in ("sat", "unsat") or (b.verdict == "sat" and not b.verified):
                    # timeouts, solver failures and "sat, UNVERIFIED" rows are failures
                    out.queries.append(Query(qid, b.seconds, "failed", f"{b.verdict}: {b.detail}", window))
                    continue
                out.queries.append(Query(qid, b.seconds, b.verdict, window=window))
                if b.verdict != expected:
                    out.errors.append(f"{qid}: expected {expected}, got {b.verdict}")
                if getattr(b, "slack", None):  # the field goes once the retry does
                    out.slack += 1
            if got:
                out.errors.append(f"{name}: unexpected rows {sorted(got)}")
        return out


class SynthSearch:
    """`synth.search` from (1,1) on the demo spec and the k=2 arbiter spec."""

    def __init__(self, seed):
        from hypersynth import synth

        self.synth = synth
        self.tracer = None
        self.specs = [(s, _load_spec(s.file)) for s in SEARCH_SPECS]
        self.insts = [synth.prepare(doc) for _, doc in self.specs]
        self.clock = None
        self.checked = set()

    def run_pass(self):
        if self.clock is None:
            self.clock = CallClock(self.synth, "solve_at_bounds")
        out = []
        for (spec, _), inst in zip(self.specs, self.insts):
            if self.tracer:
                self.tracer.query = spec.name
            self.clock.records = []
            try:
                res, _ = self.synth.search(inst, spec.max_system, spec.max_exists, timeout=QUERY_TIMEOUT_S)
                err = None
            except Exception as e:  # noqa: BLE001 - counted as a failed query
                res, err = None, e
            out.append((res, err, self.clock.records))
        return out

    def judge(self, raw) -> Judged:
        from checks import holds_on_small_lassos

        out = Judged([], [])
        for (spec, doc), (res, err, records) in zip(self.specs, raw):
            for args, t0, t1, r in records:
                qid = f"{spec.name}({args[1]},{args[2]})"
                if isinstance(r, Exception):
                    out.queries.append(_failed(qid, t1 - t0, r, (t0, t1)))
                    continue
                out.queries.append(Query(qid, t1 - t0, r.status, window=(t0, t1)))
            if err is not None:
                if not records or not isinstance(records[-1][3], Exception):
                    out.queries.append(_failed(spec.name, 0.0, err))
                continue
            if res is None:
                out.errors.append(f"{spec.name}: no sat point up to the bounds, expected {spec.first_sat}")
                continue
            if (res.n, res.m) != spec.first_sat:
                out.errors.append(f"{spec.name}: first sat at ({res.n},{res.m}), expected {spec.first_sat}")
            key = (spec.name, res.system)
            if key not in self.checked:
                self.checked.add(key)
                if not holds_on_small_lassos(res.system, doc.formula, spec.lasso_bound):
                    out.errors.append(f"{spec.name}: returned machine fails the reference evaluator")
        return out


@dataclass
class Case:
    qid: str
    system: object
    generator: object
    core: object       # quantifier-free body the model checker checks
    formula: object    # closed document formula, for the reference evaluator
    trace_vars: list
    known_good: bool


def _random_machine(rng, n, inputs, outputs):
    from hypersynth.machines import MooreSystem

    # at most one grant per state: mutual exclusion holds, so a violation
    # needs a particular input lasso and a wrong counterexample shows
    labels = tuple(frozenset(rng.choice(((),) + tuple((o,) for o in outputs))) for _ in range(n))
    delta = tuple(tuple(rng.randrange(n) for _ in range(1 << len(inputs))) for _ in range(n))
    return MooreSystem(tuple(inputs), tuple(outputs), labels, delta, 0)


class VerifyRandom:
    """`mc.mc_exists_forall` on seeded random machines and known-good pairs."""

    def __init__(self, seed):
        from hypersynth import mc
        from hypersynth.bench import gen_arbiter
        from hypersynth.machines import ExistGenerator, MooreSystem
        from hypersynth.synth import prepare

        self.mc = mc
        self.tracer = None
        self.cases = []
        self.checked = set()
        specs = {
            "arbiter3-full": gen_arbiter(3, (), True),
            "arbiter2-k2": _load_spec("arbiter2_k2.hq"),
        }
        rng = random.Random(seed)
        # every seed draws the same number of machines of each size, so the
        # seed changes which machines are checked but not how many of each size
        for name, doc in specs.items():
            inst = prepare(doc)
            tvars = mc.body_trace_vars(inst.core)
            for n in RANDOM_SIZES:
                for j in range(RANDOM_PER_SIZE[name]):
                    M = _random_machine(rng, n, doc.inputs, doc.outputs)
                    self.cases.append(Case(f"{name}/n{n}/{j}", M, None, inst.core, doc.formula, tvars, False))
        with open(HERE / "data" / "known_good.json", encoding="utf-8") as fh:
            known = json.load(fh)
        for entry in known["machines"]:
            doc = gen_arbiter(**entry["arbiter"]) if "arbiter" in entry else _load_spec(entry["spec"])
            M = MooreSystem.from_json(json.dumps(entry["system"]))
            E = ExistGenerator.from_json(json.dumps(entry["generator"])) if entry["generator"] else None
            self.cases.append(Case(entry["name"], M, E, prepare(doc).core, doc.formula, None, True))

    def run_pass(self):
        out = []
        for case in self.cases:
            if self.tracer:
                self.tracer.query = case.qid
            t0 = time.perf_counter()
            try:
                ok, cex = self.mc.mc_exists_forall(case.system, case.generator, case.core)
                out.append(((t0, time.perf_counter()), ok, cex))
            except Exception as e:  # noqa: BLE001 - counted as a failed query
                out.append(((t0, time.perf_counter()), None, e))
        return out

    def judge(self, raw) -> Judged:
        from checks import counterexample_falsifies, holds_on_small_lassos

        out = Judged([], [])
        for i, (case, (window, ok, cex)) in enumerate(zip(self.cases, raw)):
            secs = window[1] - window[0]
            if ok is None:
                out.queries.append(_failed(case.qid, secs, cex, window))
                continue
            # "sat": the machine satisfies the spec; "unsat": a violation was found
            out.queries.append(Query(case.qid, secs, "sat" if ok else "unsat", window=window))
            if case.known_good:
                if not ok:
                    out.errors.append(f"{case.qid}: known-good machine reported as violating")
                continue
            key = (i, ok, tuple(cex or ()))
            if key in self.checked:
                continue
            self.checked.add(key)
            if ok and not holds_on_small_lassos(case.system, case.formula, 1):
                out.errors.append(f"{case.qid}: reported to hold, reference evaluator disagrees")
            if not ok and not counterexample_falsifies(case.system, case.core, case.trace_vars, cex):
                out.errors.append(f"{case.qid}: counterexample does not falsify the body")
        return out


WORKLOADS = {
    "arbiter-table": ArbiterTable,
    "synth-search": SynthSearch,
    "verify-random": VerifyRandom,
}


# ---------------------------------------------------------------------------
# measurement


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Pass:
    wall: float        # as measured
    cpu: float
    factor: float      # core speed over the pass / nominal (speed.py)
    judged: Judged


def measure_pass(wl, sampler, tracer=None) -> Pass:
    wl.tracer = tracer
    root = tracer.open("pass", "pass") if tracer else None
    c0, t0 = _cpu(), time.perf_counter()
    raw = wl.run_pass()
    t1 = time.perf_counter()
    wall, cpu = t1 - t0, _cpu() - c0
    if tracer:
        tracer.close(root)
    wl.tracer = None
    factor = sampler.factor(t0, t1)
    judged = wl.judge(raw)
    for q in judged.queries:
        q.factor = sampler.factor(*q.window) if q.window else factor
    return Pass(wall, cpu, factor, judged)


def _setup_in_child(workload, seed) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(times: list):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten or fewer samples, the maximum.
    """
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setups) -> tuple:
    """Metrics from untraced passes, with every time at the nominal core speed.

    Each pass repeats the same queries, so a query's time is its median over
    the passes; the percentiles and the SAT and UNSAT sums are taken over
    these per-query times.
    """
    by_query: dict = {}
    for p in passes:
        for q in p.judged.queries:
            by_query.setdefault((q.id, q.verdict), []).append(q.seconds * q.factor)
    medians = {key: statistics.median(ts) for key, ts in by_query.items()}
    times = list(medians.values())
    value, pct = tail(times)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall * p.factor for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu * p.factor for p in passes), "s"),
        "query_p50_s": (statistics.median(times), "s"),
        "query_tail_s": (value, "s"),
        "sat_s": (sum(t for (_, v), t in medians.items() if v == "sat"), "s"),
        "unsat_s": (sum(t for (_, v), t in medians.items() if v == "unsat"), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes; "
                  f"{statistics.median(p.wall for p in passes):.3f} s at the measured speed",
        "cpu_s": "user+system, process and children, per pass",
        "query_p50_s": f"over {len(times)} queries, each the median of its passes",
        "query_tail_s": f"p{pct:.1f} over {len(times)} queries, each the median of its passes",
        "sat_s": "sum over the queries decided sat",
        "unsat_s": "sum over the queries decided unsat",
        "peak_rss_mb": "max of own and children's peak RSS",
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# per-layer metrics from spans


COUNTS = (
    "sat.solve.calls", "sat.conflicts", "synth.encode.calls", "synth.encode.vars",
    "synth.encode.clauses", "synth.encode.unsolved", "automata.ltl_to_nba.calls",
    "automata.nba_states.synth", "automata.nba_states.mc", "mc.calls",
    "mc.product_nodes", "bench.slack_retries",
)


def layer_metrics(tracer, p: Pass, conflicts: int) -> dict:
    spans = tracer.spans
    st = tracer.self_times()

    def named(*names):
        return [i for i, sp in enumerate(spans) if sp.name in names]

    solve, enc, nba = named("synth.solve"), named("synth.encode"), named("automata.ltl_to_nba")
    mcs, prod = named("mc.mc_exists_forall"), named("mc.build_product")
    decode, prepare = named("synth.decode"), named("synth.prepare")
    in_layers = solve + enc + nba + mcs + prod + decode + prepare
    verdicts = sum(q.verdict != "failed" for q in p.judged.queries) if solve else 0
    return {
        "sat.solve.calls": len(solve),
        "sat.solve.self_s": sum(st[i] for i in solve),
        "sat.solve.call_p50_s": statistics.median(st[i] for i in solve) if solve else 0.0,
        "sat.conflicts": conflicts,
        "sat.useful_ratio": verdicts / len(solve) if solve else 0.0,
        "synth.encode.calls": len(enc),
        "synth.encode.self_s": sum(st[i] for i in enc),
        "synth.encode.vars": sum(spans[i].attrs.get("vars", 0) for i in enc),
        "synth.encode.clauses": sum(spans[i].attrs.get("clauses", 0) for i in enc),
        "synth.encode.unsolved": sum(not spans[i].attrs.get("solved") for i in enc),
        "automata.ltl_to_nba.calls": len(nba),
        "automata.ltl_to_nba.self_s": sum(st[i] for i in nba),
        "automata.nba_states.synth": sum(spans[i].attrs.get("states", 0) for i in nba
                                         if spans[i].attrs.get("caller") == "synth"),
        "automata.nba_states.mc": sum(spans[i].attrs.get("states", 0) for i in nba
                                      if spans[i].attrs.get("caller") == "mc"),
        "mc.calls": len(mcs),
        "mc.self_s": sum(st[i] for i in mcs + prod),
        "mc.product_nodes": sum(spans[i].attrs.get("nodes", 0) for i in prod),
        "synth.decode.self_s": sum(st[i] for i in decode),
        "synth.prepare.self_s": sum(st[i] for i in prepare),
        "bench.slack_retries": p.judged.slack,
        # share of the traced pass spent in the stages above, not in glue code
        "tracing.coverage": sum(st[i] for i in in_layers if spans[i].query != "setup") / p.wall,
    }


LAYER_UNITS = {
    "sat.useful_ratio": "ratio", "tracing.coverage": "ratio", "tracing.overhead_s": "s",
}


def _layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def traced_run(workload, wl, seed, untraced, sampler):
    """Two traced passes; per-layer metrics from their spans, counts compared."""
    from spans import Tracer, recount_conflicts

    runs, tracers, errors, passes = [], [], [], []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            # a fresh set-up under the tracer, so prepare done at set-up shows
            setup = tr.open("setup", "setup")
            WORKLOADS[workload](seed)
            tr.close(setup)
            p = measure_pass(wl, sampler, tr)
        finally:
            tr.uninstall()
        conflicts, disagree = recount_conflicts(tr.solved)
        tr.solved = []
        if disagree:
            errors.append(f"in-process re-solve disagrees with the pipeline on {disagree} CNFs")
        runs.append(layer_metrics(tr, p, conflicts))
        tracers.append(tr)
        passes.append(p)
    for name in COUNTS:
        if runs[0][name] != runs[1][name]:
            errors.append(f"{name} differs between traced passes: {runs[0][name]} vs {runs[1][name]}")
    metrics = {}
    for name in runs[0]:
        v = runs[0][name] if name in COUNTS else statistics.median(r[name] for r in runs)
        metrics[name] = (v, _layer_unit(name))
    overhead = statistics.median(p.wall for p in passes) - statistics.median(p.wall for p in untraced)
    metrics["tracing.overhead_s"] = (overhead, "s")
    notes = {
        "sat.useful_ratio": f"base: {runs[0]['sat.solve.calls']} solves",
        "tracing.overhead_s": "traced minus untraced pass time",
    }
    OUT.mkdir(exist_ok=True)
    for i, tr in enumerate(tracers):
        tr.write(OUT / f"spans-{workload}-seed{seed}-{i}.json")
    return metrics, notes, passes, errors


# ---------------------------------------------------------------------------
# entry point


def _use_checkout_source():
    if not (SRC / "hypersynth" / "__init__.py").is_file():
        raise BenchError(f"no hypersynth package under {SRC}")
    sys.path.insert(0, str(SRC))
    # the solver subprocess imports the package from the same tree
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ.pop("HYPERSYNTH_SOLVER", None)
    # the solver's CNF files go to a temporary directory inside the checkout
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        _use_checkout_source()
        speed.pin()
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed)
            t1 = time.perf_counter()
            setup_main = (t1 - t0) * sampler.factor(t0, t1)
            if args.setup_probe:
                print(json.dumps({"setup_s": setup_main}))
                return 0
            # a traced run needs one untraced pass, as the baseline of tracing.overhead_s
            count = 1 if args.trace else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            passes = [measure_pass(wl, sampler) for _ in range(count)]
            errors = []
            if args.trace:
                metrics, notes, traced, errors = traced_run(args.workload, wl, args.seed, passes, sampler)
                judged = passes + traced
            else:
                setups = [setup_main] + [_setup_in_child(args.workload, args.seed)
                                         for _ in range(SETUP_SAMPLES - 1)]
                metrics, notes = end_to_end(passes, setups)
                judged = passes
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    queries = [q for p in judged for q in p.judged.queries]
    errors += [e for p in judged for e in p.judged.errors]
    failed = [q for q in queries if q.verdict == "failed"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{'  traced passes 2' if args.trace else ''}  queries {len(queries)}")
    print("  pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in judged))
    print("  speed factors:  " + " ".join(f"{p.factor:.3f}" for p in judged))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'fail_ratio':<28} {len(failed) / len(queries):>14.6g} {'ratio':<6} "
          f"{len(failed)} failed / {len(queries)} attempted")
    for q in failed[:10]:
        print(f"  failed query {q.id}: {q.detail}")
    for e in dict.fromkeys(errors):
        print(f"  ORACLE: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(queries),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
