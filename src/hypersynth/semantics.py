"""Ground-truth evaluator of HyperQPTL over finite sets of ultimately periodic traces."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .machines import MooreSystem, all_valuations

LOOP_ALIGN_CAP = 64
POSITION_GRAPH_CAP = 100_000


@dataclass(frozen=True)
class LassoTrace:
    """Ultimately periodic trace: finite prefix followed by a repeated nonempty loop."""

    signals: frozenset[str]
    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")
        for v in self.prefix + self.loop:
            if not v <= self.signals:
                raise ValueError(f"valuation {sorted(v)} uses signals outside {sorted(self.signals)}")

    def at(self, i: int) -> frozenset[str]:
        if i < 0:
            raise ValueError("position negative")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def key(self) -> tuple:
        """Canonical form: minimal prefix and primitive loop, for semantic deduplication."""
        prefix, loop = list(self.prefix), list(self.loop)
        # shrink loop to its primitive root
        n = len(loop)
        for d in range(1, n + 1):
            if n % d == 0 and loop == loop[:d] * (n // d):
                loop = loop[:d]
                break
        # fold prefix tail into the loop
        while prefix and prefix[-1] == loop[-1]:
            prefix.pop()
            loop = [loop[-1]] + loop[:-1]
        return (tuple(prefix), tuple(loop))


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


def replace(t: LassoTrace, q: str, tq: LassoTrace, align_cap: int = LOOP_ALIGN_CAP) -> LassoTrace:
    """Overwrite the q-coordinate of t with tq, realigning the lasso shape."""
    if tq.signals != frozenset({q}):
        raise ValueError(f"replacement trace must be over exactly {{{q}}}")
    pre = max(len(t.prefix), len(tq.prefix))
    period = lcm(len(t.loop), len(tq.loop))
    if period > align_cap:
        raise ValueError(
            f"aligned loop length {period} exceeds the cap {align_cap}; "
            "raise align_cap explicitly if this is intended"
        )
    signals = t.signals | {q}
    vals = []
    for i in range(pre + period):
        base = t.at(i) - {q}
        if q in tq.at(i):
            base = base | {q}
        vals.append(base)
    return LassoTrace(signals, tuple(vals[:pre]), tuple(vals[pre:]))


def replace_set(T: TraceSet, q: str, tq: LassoTrace, align_cap: int = LOOP_ALIGN_CAP) -> TraceSet:
    return TraceSet(T.signals | {q}, frozenset(replace(t, q, tq, align_cap) for t in T.traces))


# ---------------------------------------------------------------------------
# propositional-quantifier witness enumeration
#
# Witnesses are lassos over {q} with prefix length <= propBound and loop length
# in 1..propBound. The set grows monotonically with the bound, which gives the
# witness-persistence property for existential verdicts.


def prop_witnesses(q: str, prop_bound: int) -> list[LassoTrace]:
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
    return out


# ---------------------------------------------------------------------------
# exceptions


class KnowledgeNotAllowed(Exception):
    """Raised when eval meets a Knowledge node; use eval_knowledge for those."""


# ---------------------------------------------------------------------------
# the recursive evaluator

def eval_formula(
    f: Formula,
    T: TraceSet,
    Pi: Optional[TraceAssignment] = None,
    i: int = 0,
    prop_bound: int = 3,
) -> bool:
    """Evaluate a knowledge-free HyperQPTL formula at position i."""
    return _eval(f, T, dict(Pi or {}), i, prop_bound, allow_knowledge=False)


def eval_knowledge(
    f: Formula,
    T: TraceSet,
    Pi: Optional[TraceAssignment] = None,
    i: int = 0,
    prop_bound: int = 3,
) -> bool:
    """Evaluate a formula that may contain knowledge operators."""
    return _eval(f, T, dict(Pi or {}), i, prop_bound, allow_knowledge=True)


def _eval(f: Formula, T: TraceSet, Pi: dict, i: int, prop_bound: int, allow_knowledge: bool) -> bool:
    if i < 0:
        raise ValueError("position negative")
    if isinstance(f, Quantifier):
        if f.kind == QuantKind.TRACE_EXISTS:
            return any(
                _eval(f.child, T, {**Pi, f.var: t}, i, prop_bound, allow_knowledge)
                for t in T.sorted_traces()
            )
        if f.kind == QuantKind.TRACE_FORALL:
            return all(
                _eval(f.child, T, {**Pi, f.var: t}, i, prop_bound, allow_knowledge)
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
                allow_knowledge,
            )
            for tq in witnesses
        )
        if f.kind == QuantKind.PROP_EXISTS:
            return any(results)
        return all(results)
    ctx = _PositionGraph(T, Pi)
    vals = _eval_body(f, ctx, prop_bound, allow_knowledge)
    return vals[ctx.norm(i)]


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

    def succ(self, j: int) -> int:
        return j + 1 if j + 1 < self.n else self.pre

    def norm(self, i: int) -> int:
        if i < self.n:
            return i
        return self.pre + (i - self.pre) % self.period


def _eval_body(f: Formula, ctx: _PositionGraph, prop_bound: int, allow_knowledge: bool) -> list[bool]:
    n = ctx.n
    if isinstance(f, BoolConst):
        return [f.value] * n
    if isinstance(f, TraceAtom):
        if f.trace_var not in ctx.Pi:
            raise ValueError(f"unbound trace variable {f.trace_var!r}")
        t = ctx.Pi[f.trace_var]
        return [f.prop in t.at(j) for j in range(n)]
    if isinstance(f, PropAtom):
        # a bare quantified proposition holds when every trace of T carries it
        traces = list(ctx.T.traces)
        if not traces:
            return [True] * n
        return [all(f.var in t.at(j) for t in traces) for j in range(n)]
    if isinstance(f, Not):
        return [not v for v in _eval_body(f.child, ctx, prop_bound, allow_knowledge)]
    if isinstance(f, (And, Or, Implies, Iff)):
        a = _eval_body(f.left, ctx, prop_bound, allow_knowledge)
        b = _eval_body(f.right, ctx, prop_bound, allow_knowledge)
        if isinstance(f, And):
            return [x and y for x, y in zip(a, b)]
        if isinstance(f, Or):
            return [x or y for x, y in zip(a, b)]
        if isinstance(f, Implies):
            return [(not x) or y for x, y in zip(a, b)]
        return [x == y for x, y in zip(a, b)]
    if isinstance(f, Next):
        a = _eval_body(f.child, ctx, prop_bound, allow_knowledge)
        return [a[ctx.succ(j)] for j in range(n)]
    if isinstance(f, Eventually):
        a = _eval_body(f.child, ctx, prop_bound, allow_knowledge)
        res = [False] * n
        loop_any = any(a[ctx.pre:])
        for j in range(n - 1, -1, -1):
            nxt = res[ctx.succ(j)] if ctx.succ(j) > j else loop_any
            res[j] = a[j] or nxt
        return res
    if isinstance(f, Globally):
        a = _eval_body(f.child, ctx, prop_bound, allow_knowledge)
        res = [False] * n
        loop_all = all(a[ctx.pre:])
        for j in range(n - 1, -1, -1):
            nxt = res[ctx.succ(j)] if ctx.succ(j) > j else loop_all
            res[j] = a[j] and nxt
        return res
    if isinstance(f, (Until, WeakUntil, Release)):
        a = _eval_body(f.left, ctx, prop_bound, allow_knowledge)
        b = _eval_body(f.right, ctx, prop_bound, allow_knowledge)
        if isinstance(f, Until):
            init = False
            combine = lambda x, y, r: y or (x and r)
        elif isinstance(f, Release):
            init = True
            combine = lambda x, y, r: y and (x or r)
        else:  # a W b  =  b R (a | b)
            a2 = [x or y for x, y in zip(a, b)]
            a, b = b, a2
            init = True
            combine = lambda x, y, r: y and (x or r)
        res = [init] * n
        # two backward passes saturate the fixpoint on the lasso cycle
        for _ in range(2):
            for j in range(n - 1, -1, -1):
                res[j] = combine(a[j], b[j], res[ctx.succ(j)])
        return res
    if isinstance(f, Knowledge):
        if not allow_knowledge:
            raise KnowledgeNotAllowed("knowledge operator in eval; use eval_knowledge")
        return [_knowledge_at(f, ctx, j, prop_bound) for j in range(n)]
    if isinstance(f, Quantifier):
        # a non-prenex quantifier under a temporal operator: evaluate pointwise
        return [_eval(f, ctx.T, ctx.Pi, j, prop_bound, allow_knowledge) for j in range(n)]
    raise TypeError(f"cannot evaluate node {type(f).__name__}")


def _knowledge_at(f: Knowledge, ctx: _PositionGraph, j: int, prop_bound: int) -> bool:
    if f.trace_var not in ctx.Pi:
        raise ValueError(f"unbound trace variable {f.trace_var!r} in knowledge operator")
    ref = ctx.Pi[f.trace_var]
    for t in ctx.T.sorted_traces():
        if all(ref.at(k) & f.agents == t.at(k) & f.agents for k in range(j + 1)):
            if not _eval(f.child, ctx.T, {**ctx.Pi, f.trace_var: t}, j, prop_bound, True):
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
