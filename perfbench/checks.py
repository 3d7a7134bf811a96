"""Verdict checks that rest on the reference evaluator, not on automata or mc.

The benchmark calls these outside its timed region. They only read
`hypersynth.semantics` (the lasso-trace evaluator the test suite treats as
ground truth) and the machines' own transition tables.
"""

from __future__ import annotations

from hypersynth.semantics import LassoTrace, TraceSet, eval_formula, system_traces


def run_machine(M, inputs: LassoTrace) -> LassoTrace:
    """The trace of Moore machine M on an input lasso, as a lasso over inputs and outputs."""
    signals = frozenset(M.inputs) | frozenset(M.outputs)
    vals = []
    s = M.initial
    for v in inputs.prefix:
        vals.append(M.labels[s] | v)
        s = M.step(s, v)
    # the trace repeats once (state, position in the input loop) repeats
    seen = {}
    pos = 0
    while (s, pos) not in seen:
        seen[(s, pos)] = len(vals)
        v = inputs.loop[pos]
        vals.append(M.labels[s] | v)
        s = M.step(s, v)
        pos = (pos + 1) % len(inputs.loop)
    start = seen[(s, pos)]
    return LassoTrace(signals, tuple(vals[:start]), tuple(vals[start:]))


def counterexample_falsifies(M, body, trace_vars, cex) -> bool:
    """True when the input lassos, run through M, falsify the quantifier-free body."""
    if cex is None or len(cex) != len(trace_vars):
        return False
    traces = [run_machine(M, lasso) for lasso in cex]
    signals = traces[0].signals
    assignment = dict(zip(trace_vars, traces))
    return not eval_formula(body, TraceSet(signals, frozenset(traces)), assignment)


def holds_on_small_lassos(M, formula, bound: int) -> bool:
    """Evaluate a closed formula on M's traces under input lassos up to (bound, bound)."""
    return eval_formula(formula, system_traces(M, bound, bound), prop_bound=3)
