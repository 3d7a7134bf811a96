"""Buchi automata for quantifier-free bodies, built by tableau expansion."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .formula import (
    And,
    BoolConst,
    Eventually,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    PropAtom,
    Quantifier,
    Release,
    SpecError,
    TraceAtom,
    Until,
    WeakUntil,
    print_formula,
    to_nnf,
    walk,
)

# a guard is a conjunction of literals (signal, required value); frozenset() is "true"
Lit = tuple[str, bool]
Guard = frozenset


def guard_satisfied(guard: Guard, valuation: frozenset) -> bool:
    return all((sig in valuation) == val for sig, val in guard)


def merge_guards(g1: Guard, g2: Guard) -> Optional[Guard]:
    merged = g1 | g2
    seen: dict[str, bool] = {}
    for sig, val in merged:
        if seen.get(sig, val) != val:
            return None
        seen[sig] = val
    return merged


@dataclass(frozen=True)
class NBA:
    """Nondeterministic Buchi automaton with literal-conjunction edge guards."""

    n_states: int
    initial: frozenset
    accepting: frozenset
    transitions: tuple

    def __post_init__(self):
        assert self.initial, "an automaton needs at least one initial state"
        for s in self.initial | self.accepting:
            assert 0 <= s < self.n_states
        for src, _, dst in self.transitions:
            assert 0 <= src < self.n_states and 0 <= dst < self.n_states

    @cached_property
    def edges(self) -> tuple:
        """Outgoing (guard, target) pairs of each state, in transition order."""
        out: list = [[] for _ in range(self.n_states)]
        for s, g, d in self.transitions:
            out[s].append((g, d))
        return tuple(tuple(es) for es in out)

    @cached_property
    def sccs(self) -> tuple:
        """(index of each state's accepting SCC or -1, accepting states of each).

        Only SCCs with a cycle and an accepting state are indexed: no run
        visits an accepting state of any other SCC infinitely often, so the
        annotation counters of bounded synthesis live only in these.
        """
        succ = {s: [d for _, d in es] for s, es in enumerate(self.edges)}
        scc_of = [-1] * self.n_states
        weight = []
        for c, comp in enumerate(accepting_sccs(self.n_states, succ, self.accepting)):
            for q in comp:
                scc_of[q] = c
            weight.append(len(comp & self.accepting))
        return tuple(scc_of), tuple(weight)

# ---------------------------------------------------------------------------
# flattening trace-indexed atoms to composite signals


def flatten_atom(prop: str, trace_var: str) -> str:
    return f"{prop}@{trace_var}"


def split_atom(sig: str) -> tuple[str, str]:
    """Inverse of flatten_atom: (prop, trace_var) of a copy-indexed signal."""
    if "@" not in sig:
        raise SpecError(f"signal {sig!r} is not copy-indexed (prop@copy)")
    prop, trace_var = sig.split("@", 1)
    return prop, trace_var


def flatten(f: Formula) -> Formula:
    """Turn every trace-indexed atom into a plain proposition named prop@var."""
    if isinstance(f, TraceAtom):
        return PropAtom(flatten_atom(f.prop, f.trace_var))
    kids = f.children()
    if not kids:
        return f
    if isinstance(f, Quantifier):
        raise SpecError("cannot flatten under a quantifier")
    if len(kids) == 1:
        return type(f)(flatten(kids[0]))
    return type(f)(flatten(kids[0]), flatten(kids[1]))


# ---------------------------------------------------------------------------
# tableau expansion


def _expand(f: Formula, memo: dict) -> list:
    """DNF-like expansion: list of (guard, next-obligations, delayed-liveness)."""
    hit = memo.get(id(f))
    if hit is not None:
        return hit
    if isinstance(f, BoolConst):
        out = [(frozenset(), frozenset(), frozenset())] if f.value else []
    elif isinstance(f, PropAtom):
        out = [(frozenset([(f.var, True)]), frozenset(), frozenset())]
    elif isinstance(f, Not):
        if not isinstance(f.child, PropAtom):
            raise SpecError("negation above a non-atom; the body must be in negation normal form")
        out = [(frozenset([(f.child.var, False)]), frozenset(), frozenset())]
    elif isinstance(f, Next):
        out = [(frozenset(), frozenset([f.child]), frozenset())]
    elif isinstance(f, And):
        out = _combine(_expand(f.left, memo), _expand(f.right, memo))
    elif isinstance(f, Or):
        out = _expand(f.left, memo) + _expand(f.right, memo)
    elif isinstance(f, Until):
        delay = [(frozenset(), frozenset([f]), frozenset([f]))]
        out = _expand(f.right, memo) + _combine(_expand(f.left, memo), delay)
    elif isinstance(f, Eventually):
        delay = [(frozenset(), frozenset([f]), frozenset([f]))]
        out = _expand(f.child, memo) + delay
    elif isinstance(f, WeakUntil):
        delay = [(frozenset(), frozenset([f]), frozenset())]
        out = _expand(f.right, memo) + _combine(_expand(f.left, memo), delay)
    elif isinstance(f, Release):
        hold = [(frozenset(), frozenset([f]), frozenset())]
        out = _combine(_expand(f.right, memo), _expand(f.left, memo) + hold)
    elif isinstance(f, Globally):
        hold = [(frozenset(), frozenset([f]), frozenset())]
        out = _combine(_expand(f.child, memo), hold)
    else:
        raise SpecError(f"operator not allowed in an automaton body: {type(f).__name__}")
    memo[id(f)] = out
    return out


def _combine(left: list, right: list) -> list:
    out = []
    for g1, n1, d1 in left:
        for g2, n2, d2 in right:
            g = merge_guards(g1, g2)
            if g is not None:
                out.append((g, n1 | n2, d1 | d2))
    return out


def _state_transitions(state: frozenset, memo: dict) -> list:
    acc = [(frozenset(), frozenset(), frozenset())]
    for member in sorted(state, key=print_formula):
        acc = _combine(acc, _expand(member, memo))
        if not acc:
            break
    # drop the true constant from obligations and dedupe branches
    seen = set()
    out = []
    for g, nxt, dly in acc:
        nxt = frozenset(x for x in nxt if not (isinstance(x, BoolConst) and x.value))
        key = (g, nxt, dly)
        if key not in seen:
            seen.add(key)
            out.append((g, nxt, dly))
    return out


# formulas whose automata are kept; synthesis and its verification share one
_NBA_CACHE_SIZE = 128


@lru_cache(maxsize=_NBA_CACHE_SIZE)
def ltl_to_nba(f: Formula) -> NBA:
    """Buchi automaton for a quantifier-free formula over plain propositions.

    Its alphabet is the formula's atoms. The tableau runs once per formula;
    later calls with an equal formula return the same automaton.
    """
    f = flatten(f)
    f = to_nnf(f)

    liveness = sorted(
        {g for g in walk(f) if isinstance(g, (Until, Eventually))}, key=print_formula
    )
    k = len(liveness)
    acc_index = {u: i for i, u in enumerate(liveness)}

    start = frozenset() if isinstance(f, BoolConst) and f.value else frozenset([f])
    if isinstance(f, BoolConst) and not f.value:
        return _empty_nba()

    memo: dict = {}
    gnba_trans: dict[frozenset, list] = {}
    todo = [start]
    seen_states = {start}
    while todo:
        s = todo.pop()
        branches = _state_transitions(s, memo)
        gnba_trans[s] = branches
        for _, nxt, _ in branches:
            if nxt not in seen_states:
                seen_states.add(nxt)
                todo.append(nxt)

    # degeneralize with a round counter; index k marks a completed round
    state_id: dict = {}
    transitions = []

    def sid(s: frozenset, idx: int) -> int:
        key = (s, idx)
        if key not in state_id:
            state_id[key] = len(state_id)
        return state_id[key]

    init = sid(start, 0)
    work = [(start, 0)]
    expanded = set()
    while work:
        s, idx = work.pop()
        if (s, idx) in expanded:
            continue
        expanded.add((s, idx))
        base = 0 if idx == k else idx
        for g, nxt, dly in gnba_trans[s]:
            j = base
            while j < k and liveness[j] not in dly:
                j += 1
            tgt = k if j == k else j
            dst = sid(nxt, tgt)
            transitions.append((sid(s, idx), g, dst))
            if (nxt, tgt) not in expanded:
                work.append((nxt, tgt))

    n = len(state_id)
    accepting = frozenset(i for (s, idx), i in state_id.items() if idx == k)
    nba = NBA(n, frozenset([init]), accepting, tuple(transitions))
    return simplify_nba(nba)


# ---------------------------------------------------------------------------
# simplification passes


def tarjan_sccs(n: int, succ: dict) -> list:
    """Iterative Tarjan; returns SCCs as lists of nodes, reverse topological order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in range(n):
        if root in index:
            continue
        call = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while call:
            node, it = call[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    call.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def accepting_sccs(n: int, succ: dict, accepting) -> list:
    """SCCs (as sets) with a cycle and an accepting node, reverse topological order."""
    out = []
    for comp in tarjan_sccs(n, succ):
        cyclic = len(comp) > 1 or comp[0] in succ.get(comp[0], ())
        if cyclic and not accepting.isdisjoint(comp):
            out.append(set(comp))
    return out


def live_states(n: int, succ: dict, sccs: list) -> set:
    """Nodes that can reach a node of one of the given SCCs."""
    pred: dict = {}
    for u in range(n):
        for v in succ.get(u, ()):
            pred.setdefault(v, []).append(u)
    live = set().union(*sccs)
    todo = list(live)
    while todo:
        for p in pred.get(todo.pop(), ()):
            if p not in live:
                live.add(p)
                todo.append(p)
    return live


def _empty_nba() -> NBA:
    return NBA(1, frozenset([0]), frozenset(), tuple())


def _subsume_edges(trans: list) -> list:
    by_pair: dict = {}
    for s, g, d in trans:
        by_pair.setdefault((s, d), set()).add(g)
    out = []
    for (s, d), gs in sorted(by_pair.items()):
        kept: list = []
        for g in sorted(gs, key=lambda h: (len(h), sorted(h))):
            if not any(h <= g for h in kept):
                kept.append(g)
        for g in kept:
            out.append((s, g, d))
    return out


def simplify_nba(nba: NBA) -> NBA:
    trans = _subsume_edges(list(dict.fromkeys(nba.transitions)))

    # states reachable from the initial set
    succ: dict[int, set] = {}
    for s, _, d in trans:
        succ.setdefault(s, set()).add(d)
    reach = set(nba.initial)
    todo = list(nba.initial)
    while todo:
        s = todo.pop()
        for d in succ.get(s, ()):
            if d not in reach:
                reach.add(d)
                todo.append(d)

    # states from which an accepting cycle is reachable
    live = live_states(nba.n_states, succ, accepting_sccs(nba.n_states, succ, nba.accepting))

    keep = reach & live
    if not keep:
        return _empty_nba()

    # quotient by iterated outgoing-signature equality (forward bisimulation)
    block = {s: int(s in nba.accepting) for s in keep}
    while True:
        canon = {}
        for s in keep:
            outs = sorted(
                {(tuple(sorted(g)), block[d]) for src, g, d in trans if src == s and d in keep}
            )
            canon[s] = (block[s], tuple(outs))
        keys = sorted(set(canon.values()))
        newid = {k: i for i, k in enumerate(keys)}
        new_block = {s: newid[canon[s]] for s in keep}
        if new_block == block:
            break
        block = new_block

    rep_of_block: dict[int, int] = {}
    for s in sorted(keep):
        rep_of_block.setdefault(block[s], s)
    reps = sorted(rep_of_block.values())
    remap = {b: reps.index(r) for b, r in rep_of_block.items()}

    new_initial = frozenset(remap[block[s]] for s in nba.initial if s in keep)
    if not new_initial:
        return _empty_nba()
    new_accept = frozenset(remap[block[s]] for s in keep if s in nba.accepting)

    merged = [
        (remap[block[s]], g, remap[block[d]])
        for s, g, d in trans
        if s in keep and d in keep and rep_of_block[block[s]] == s
    ]
    return NBA(len(reps), new_initial, new_accept, tuple(_subsume_edges(merged)))


# ---------------------------------------------------------------------------
# acceptance over lasso words


def loop_acceptance_states(nba: NBA, loop_vals: list) -> set:
    """States from which reading loop_vals forever admits an accepting run (phase 0 entry)."""
    m = len(loop_vals)
    n = nba.n_states * m
    # node q * m + i: automaton state q about to read loop position i
    succ = {
        q * m + i: {
            d * m + (i + 1) % m for g, d in nba.edges[q] if guard_satisfied(g, loop_vals[i])
        }
        for q in range(nba.n_states)
        for i in range(m)
    }
    accepting = {q * m + i for q in nba.accepting for i in range(m)}
    live = live_states(n, succ, accepting_sccs(n, succ, accepting))
    return {q for q in range(nba.n_states) if q * m in live}


def run_prefix(nba: NBA, vals: list, from_states: set) -> set:
    cur = set(from_states)
    for v in vals:
        cur = {d for s in cur for g, d in nba.edges[s] if guard_satisfied(g, v)}
        if not cur:
            break
    return cur


def accepts_lasso(nba: NBA, prefix_vals: list, loop_vals: list) -> bool:
    """Membership of the ultimately periodic word prefix . loop^omega."""
    assert loop_vals, "a lasso needs a nonempty loop"
    after = run_prefix(nba, prefix_vals, set(nba.initial))
    if not after:
        return False
    good = loop_acceptance_states(nba, loop_vals)
    return bool(after & good)
