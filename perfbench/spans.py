"""Span recording around the pipeline's module-level entry points.

The tracer swaps a module attribute (for example `synth.encode`) for a wrapper
that records a span and calls the original. The pipeline calls its stages
through these module globals, so nothing under `src/` is edited. Spans stay in
memory; `self_times` turns them into per-layer self time and `write` saves them.

Solver time is the self time of `synth.solve`: its span minus its `decode` and
`mc` children. It is never read from the private subprocess helper, so the
figure means the same once the solver runs in process.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array

from hypersynth import bench, mc, synth
from hypersynth.sat import Solver


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "attrs")

    def __init__(self, name, start, parent, query):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.query = query
        self.attrs = {}


class Tracer:
    """Records spans for one traced pass; `install` and `uninstall` bracket it."""

    def __init__(self):
        self.spans: list = []
        self.query = None
        self._stack: list = []
        self._patches: list = []
        self._encoded: dict = {}   # id(problem) -> (encode span, weakref to problem)
        self.solved: list = []     # (nvars, flat clauses, verdict) per solver call

    # ----------------------------------------------------------------- spans

    def open(self, name, query=None):
        if query is not None:
            self.query = query
        sp = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, self.query)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        return sp

    def close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr, name, after=None, query=None):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            outer = self.query
            sp = self.open(name, query(*args) if query else None)
            try:
                res = orig(*args, **kwargs)
            except BaseException as e:
                sp.attrs["error"] = type(e).__name__
                raise
            finally:
                self.close(sp)
                if query:
                    self.query = outer
            if after is not None:
                after(sp, args, res)
            return res

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def install(self):
        """Wrap every stage the pipeline calls through a module attribute."""
        self._wrap(bench, "run_instance", "bench.run_instance", query=lambda b, *a: b.name)
        self._wrap(bench, "prepare", "synth.prepare")
        self._wrap(synth, "prepare", "synth.prepare")
        self._wrap(bench, "solve_at_bounds", "synth.solve_at_bounds",
                   query=lambda inst, n, m, *a: f"{self.query}({n},{m})")
        self._wrap(synth, "solve_at_bounds", "synth.solve_at_bounds",
                   query=lambda inst, n, m, *a: f"{self.query}({n},{m})")
        self._wrap(synth, "encode", "synth.encode", after=self._after_encode)
        self._wrap(synth, "ltl_to_nba", "automata.ltl_to_nba", after=self._nba_from("synth"))
        self._wrap(synth, "solve", "synth.solve", after=self._after_solve)
        self._wrap(synth, "decode", "synth.decode")
        self._wrap(synth, "mc_exists_forall", "mc.mc_exists_forall")
        self._wrap(mc, "mc_exists_forall", "mc.mc_exists_forall")
        self._wrap(mc, "ltl_to_nba", "automata.ltl_to_nba", after=self._nba_from("mc"))
        self._wrap(mc, "build_product", "mc.build_product", after=self._after_product)

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------- per-stage counts

    def _after_encode(self, sp, args, problem):
        sp.attrs["vars"] = problem.nvars
        sp.attrs["clauses"] = len(problem.clauses)
        sp.attrs["solved"] = False
        self._encoded[id(problem)] = (sp, weakref.ref(problem))

    def _nba_from(self, caller):
        def after(sp, args, nba):
            sp.attrs["caller"] = caller
            sp.attrs["states"] = nba.n_states
        return after

    def _after_solve(self, sp, args, result):
        problem = args[0]
        sp.attrs["status"] = result.status
        hit = self._encoded.get(id(problem))
        if hit is not None and hit[1]() is problem:
            hit[0].attrs["solved"] = True
        # copy the CNF for the conflict recount, in a span of its own so the
        # copy is charged to tracing and not to the solver
        cap = self.open("tracing.capture")
        flat = array("i")
        for cl in problem.clauses:
            flat.extend(cl)
            flat.append(0)
        self.solved.append((problem.nvars, flat, result.status))
        self.close(cap)

    def _after_product(self, sp, args, pg):
        sp.attrs["nodes"] = len(pg.nodes)

    # -------------------------------------------------------------- analysis

    def self_times(self) -> list:
        """Self time of each span: its duration minus its children's durations."""
        out = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.end - sp.start
        return out

    def write(self, path):
        rows = [
            {"id": i, "name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "query": sp.query, **sp.attrs}
            for i, sp in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def recount_conflicts(solved: list):
    """Re-solve each captured CNF in process, loaded as the DIMACS front end loads it.

    Returns (total conflicts, number of verdicts that differ from the pipeline's).
    """
    total = 0
    disagree = 0
    for nvars, flat, status in solved:
        s = Solver()
        s.ensure_vars(nvars)
        cl: list = []
        for x in flat:
            if x:
                cl.append(x)
            else:
                s.add_clause(cl)
                cl = []
        sat = s.solve()
        total += s.conflicts
        disagree += ("sat" if sat else "unsat") != status
    return total, disagree
