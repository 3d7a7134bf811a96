"""Ground-truth evaluator of HyperQPTL over finite sets of ultimately periodic traces."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Mapping, Optional

from .formula import (
    And,
    BoolConst,
    Eventually,
    Formula,
    Globally,
    Iff,
    Implies,
    Knowledge,
    Next,
    Not,
    Or,
    PropAtom,
    Quantifier,
    QuantKind,
    Release,
    TraceAtom,
    Until,
    WeakUntil,
)
from .machines import LassoTrace, MooreSystem, all_valuations

LOOP_ALIGN_CAP = 64
POSITION_GRAPH_CAP = 100_000


@dataclass(frozen=True)
class TraceSet:
    signals: frozenset[str]
    traces: frozenset[LassoTrace]

    def __post_init__(self):
        for t in self.traces:
            if t.signals != self.signals:
                raise ValueError("trace signal set differs from trace-set signals")

    def sorted_traces(self) -> list[LassoTrace]:
        return sorted(self.traces, key=lambda t: (t.prefix, t.loop, str(t)))


TraceAssignment = Mapping[str, LassoTrace]


# ---------------------------------------------------------------------------
# replacement t[q -> tq]


def replace(t: LassoTrace, q: str, tq: LassoTrace) -> LassoTrace:
    """Overwrite the q-coordinate of t with tq, realigning the lasso shape."""
    if tq.signals != frozenset({q}):
        raise ValueError(f"replacement trace must be over exactly {{{q}}}")
    pre = max(len(t.prefix), len(tq.prefix))
    period = lcm(len(t.loop), len(tq.loop))
    if period > LOOP_ALIGN_CAP:
        raise ValueError(f"aligned loop length {period} exceeds the cap {LOOP_ALIGN_CAP}")
    signals = t.signals | {q}
    vals = []
    for i in range(pre + period):
        base = t.at(i) - {q}
        if q in tq.at(i):
            base = base | {q}
        vals.append(base)
    return LassoTrace(signals, tuple(vals[:pre]), tuple(vals[pre:]))


def replace_set(T: TraceSet, q: str, tq: LassoTrace) -> TraceSet:
    return TraceSet(T.signals | {q}, frozenset(replace(t, q, tq) for t in T.traces))


# ---------------------------------------------------------------------------
# propositional-quantifier witness enumeration
#
# Witnesses are lassos over {q} with prefix length <= propBound and loop length
# in 1..propBound. The set grows monotonically with the bound, which gives the
# witness-persistence property for existential verdicts. The set is pure and
# the evaluator asks for the same few (q, bound) pairs many times, so it is
# cached.


@lru_cache(maxsize=256)
def prop_witnesses(q: str, prop_bound: int) -> tuple[LassoTrace, ...]:
    out = []
    seen: set[tuple] = set()
    for p in range(prop_bound + 1):
        for l in range(1, prop_bound + 1):
            for bits in itertools.product((False, True), repeat=p + l):
                prefix = tuple(frozenset({q}) if b else frozenset() for b in bits[:p])
                loop = tuple(frozenset({q}) if b else frozenset() for b in bits[p:])
                t = LassoTrace(frozenset({q}), prefix, loop)
                k = t.key()
                if k not in seen:
                    seen.add(k)
                    out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# the recursive evaluator

def eval_formula(
    f: Formula,
    T: TraceSet,
    Pi: Optional[TraceAssignment] = None,
    i: int = 0,
    prop_bound: int = 3,
) -> bool:
    """Evaluate a HyperQPTL formula, knowledge operators included, at position i."""
    return _eval(f, T, dict(Pi or {}), i, prop_bound)


def _eval(f: Formula, T: TraceSet, Pi: dict, i: int, prop_bound: int) -> bool:
    if i < 0:
        raise ValueError("position negative")
    if isinstance(f, Quantifier):
        if f.kind == QuantKind.TRACE_EXISTS:
            return any(
                _eval(f.child, T, {**Pi, f.var: t}, i, prop_bound)
                for t in T.sorted_traces()
            )
        if f.kind == QuantKind.TRACE_FORALL:
            return all(
                _eval(f.child, T, {**Pi, f.var: t}, i, prop_bound)
                for t in T.sorted_traces()
            )
        # propositional quantifier: replace uniformly across the trace set and
        # across the assignment image
        witnesses = prop_witnesses(f.var, prop_bound)
        results = (
            _eval(
                f.child,
                replace_set(T, f.var, tq),
                {v: replace(t, f.var, tq) for v, t in Pi.items()},
                i,
                prop_bound,
            )
            for tq in witnesses
        )
        if f.kind == QuantKind.PROP_EXISTS:
            return any(results)
        return all(results)
    ctx = _PositionGraph(T, Pi)
    vals = _eval_body(f, ctx.pre, ctx.n, 1, lambda g: _leaf(g, ctx, prop_bound))
    return vals[ctx.norm(i)] == 1


def eval_bulk(
    f: Formula, atoms: Mapping[tuple, list[int]], pre: int, period: int, rows: int
) -> list[int]:
    """Evaluate a quantifier-free body on `rows` lassos of one shape (pre, period) at once.

    Atom keys are ("trace", prop, trace_var) and ("prop", var); each maps to
    pre + period ints, one per position, whose bit r is the atom's value on
    row r. The result has the same form: bit r of entry j is the body's
    verdict at position j of row r.
    """

    def leaf(g: Formula) -> list[int]:
        if isinstance(g, TraceAtom):
            return atoms[("trace", g.prop, g.trace_var)]
        if isinstance(g, PropAtom):
            return atoms[("prop", g.var)]
        raise TypeError(f"cannot bulk-evaluate node {type(g).__name__}")

    return _eval_body(f, pre, pre + period, (1 << rows) - 1, leaf)


class _PositionGraph:
    """Positions 0..N-1 where N = Pre + P; the successor of N-1 wraps to Pre."""

    def __init__(self, T: TraceSet, Pi: dict):
        traces = list(T.traces) + list(Pi.values())
        pre = max((len(t.prefix) for t in traces), default=0)
        period = 1
        for t in traces:
            period = lcm(period, len(t.loop))
        if pre + period > POSITION_GRAPH_CAP:
            raise ValueError(f"aligned position graph of size {pre + period} exceeds cap")
        self.T = T
        self.Pi = Pi
        self.pre = pre
        self.period = period
        self.n = pre + period

    def norm(self, i: int) -> int:
        if i < self.n:
            return i
        return self.pre + (i - self.pre) % self.period


def _leaf(f: Formula, ctx: _PositionGraph, prop_bound: int) -> list[int]:
    """Per-position values of an atom, knowledge or quantifier node, as bools:
    the one-row masks 0 and 1."""
    n = ctx.n
    if isinstance(f, TraceAtom):
        if f.trace_var not in ctx.Pi:
            raise ValueError(f"no trace assigned to {f.trace_var!r}")
        t = ctx.Pi[f.trace_var]
        return [f.prop in t.at(j) for j in range(n)]
    if isinstance(f, PropAtom):
        # a bare quantified proposition holds when every trace of T carries it
        traces = list(ctx.T.traces)
        return [all(f.var in t.at(j) for t in traces) for j in range(n)]
    if isinstance(f, Knowledge):
        return [_knowledge_at(f, ctx, j, prop_bound) for j in range(n)]
    if isinstance(f, Quantifier):
        # a non-prenex quantifier under a temporal operator: evaluate pointwise
        return [_eval(f, ctx.T, ctx.Pi, j, prop_bound) for j in range(n)]
    raise TypeError(f"cannot evaluate node {type(f).__name__}")


_OPERATORS = (BoolConst, Not, And, Or, Implies, Iff, Next, Eventually, Globally, Until, WeakUntil, Release)


def _eval_body(f: Formula, pre: int, n: int, full: int, leaf) -> list[int]:
    """Per-position row masks of f on lassos of n positions, the last wrapping to
    pre: `full` has one bit per row, and `leaf` evaluates every non-operator node."""

    def rec(g: Formula) -> list[int]:
        if not isinstance(g, _OPERATORS):
            return leaf(g)
        if isinstance(g, BoolConst):
            return [full if g.value else 0] * n
        if isinstance(g, Not):
            return [full ^ x for x in rec(g.child)]
        if isinstance(g, (And, Or, Implies, Iff)):
            a, b = rec(g.left), rec(g.right)
            if isinstance(g, And):
                return [x & y for x, y in zip(a, b)]
            if isinstance(g, Or):
                return [x | y for x, y in zip(a, b)]
            if isinstance(g, Implies):
                return [(full ^ x) | y for x, y in zip(a, b)]
            return [full ^ x ^ y for x, y in zip(a, b)]
        if isinstance(g, Next):
            a = rec(g.child)
            return a[1:] + [a[pre]]
        if isinstance(g, (Eventually, Globally)):
            # every loop position sees the whole cycle, so the loop value is uniform
            a = rec(g.child)
            some = isinstance(g, Eventually)
            loop = 0 if some else full
            for x in a[pre:]:
                loop = loop | x if some else loop & x
            res = a[:pre] + [loop] * (n - pre)
            for j in range(pre - 1, -1, -1):
                res[j] = a[j] | res[j + 1] if some else a[j] & res[j + 1]
            return res
        # Until, WeakUntil or Release
        a, b = rec(g.left), rec(g.right)
        if isinstance(g, WeakUntil):  # a W b  =  b R (a | b)
            a, b = b, [x | y for x, y in zip(a, b)]
        release = not isinstance(g, Until)
        res = [full if release else 0] * n
        # two backward passes saturate the fixpoint on the lasso cycle
        for _ in range(2):
            nxt = res[pre]
            for j in range(n - 1, -1, -1):
                nxt = res[j] = b[j] & (a[j] | nxt) if release else b[j] | (a[j] & nxt)
        return res

    return rec(f)


def _knowledge_at(f: Knowledge, ctx: _PositionGraph, j: int, prop_bound: int) -> bool:
    if f.trace_var not in ctx.Pi:
        raise ValueError(f"no trace assigned to {f.trace_var!r} in knowledge operator")
    ref = ctx.Pi[f.trace_var]
    for t in ctx.T.sorted_traces():
        if all(ref.at(k) & f.agents == t.at(k) & f.agents for k in range(j + 1)):
            if not _eval(f.child, ctx.T, {**ctx.Pi, f.trace_var: t}, j, prop_bound):
                return False
    return True


# ---------------------------------------------------------------------------
# traces of a Moore system


def system_traces(M: MooreSystem, max_prefix: int, max_loop: int) -> TraceSet:
    """All traces of M under lasso-shaped input words with prefix <= max_prefix, loop <= max_loop."""
    signals = frozenset(M.inputs) | frozenset(M.outputs)
    vals = all_valuations(M.inputs)
    traces: set[LassoTrace] = set()
    seen_keys: set[tuple] = set()
    for p in range(max_prefix + 1):
        for l in range(1, max_loop + 1):
            for word in itertools.product(range(len(vals)), repeat=p + l):
                trace = _run_lasso(M, vals, word[:p], word[p:])
                k = trace.key()
                if k not in seen_keys:
                    seen_keys.add(k)
                    traces.add(trace)
    return TraceSet(signals, frozenset(traces))


def _run_lasso(
    M: MooreSystem,
    vals: list[frozenset[str]],
    pre_word: tuple[int, ...],
    loop_word: tuple[int, ...],
) -> LassoTrace:
    signals = frozenset(M.inputs) | frozenset(M.outputs)
    out_vals: list[frozenset[str]] = []
    s = M.initial
    for idx in pre_word:
        out_vals.append(M.labels[s] | vals[idx])
        s = M.delta[s][idx]
    # iterate the loop word until (state, loop position) repeats
    seen: dict[tuple[int, int], int] = {}
    pos = 0
    while (s, pos) not in seen:
        seen[(s, pos)] = len(out_vals)
        out_vals.append(M.labels[s] | vals[loop_word[pos]])
        s = M.delta[s][loop_word[pos]]
        pos = (pos + 1) % len(loop_word)
    start = seen[(s, pos)]
    return LassoTrace(signals, tuple(out_vals[:start]), tuple(out_vals[start:]))
