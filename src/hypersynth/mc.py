"""Model checking of Moore systems against trace-quantified bodies."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .automata import NBA, accepting_sccs, flatten_atom, guard_satisfied, ltl_to_nba, split_atom
from .formula import And, Formula, Not, SpecError, TraceAtom, Quantifier, walk
from .machines import ExistGenerator, MooreSystem, all_valuations
from .reductions import build_consistency, consistency_anchor
from .semantics import LassoTrace


def body_trace_vars(f: Formula) -> list:
    seen = []
    for g in walk(f):
        if isinstance(g, TraceAtom) and g.trace_var not in seen:
            seen.append(g.trace_var)
        if isinstance(g, Quantifier):
            raise SpecError("expected a quantifier-free body")
    return seen


@dataclass
class ProductGraph:
    """Reachable product of system copies, an optional generator, and an automaton."""

    nodes: list
    edges: dict
    initial: list
    accepting: set


def _letter(M: MooreSystem, trace_vars, state_vec, input_vecs, gen_val: frozenset) -> frozenset:
    parts = set(gen_val)
    for var, s, iv in zip(trace_vars, state_vec, input_vecs):
        for o in M.labels[s]:
            parts.add(flatten_atom(o, var))
        for i in iv:
            parts.add(flatten_atom(i, var))
    return frozenset(parts)


def build_product(
    M: MooreSystem,
    trace_vars: list,
    nba: NBA,
    E: Optional[ExistGenerator] = None,
) -> ProductGraph:
    k = len(trace_vars)
    in_vals = all_valuations(M.inputs)
    val_bits = []
    for val in in_vals:
        bit = 0
        for b, i in enumerate(M.inputs):
            if i in val:
                bit |= 1 << b
        val_bits.append(bit)
    joint_inputs = list(itertools.product(range(len(in_vals)), repeat=k))

    e_init = E.initial if E is not None else -1
    init_nodes = [((0,) * k, e_init, q) for q in sorted(nba.initial)]
    index = {}
    nodes = []
    edges: dict = {}

    def nid(node):
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    todo = [nid(n) for n in init_nodes]
    seen = set(todo)
    while todo:
        u = todo.pop()
        vec, e, q = nodes[u]
        gen_val = E.labels[e] if E is not None else frozenset()
        e_next = E.next_state[e] if E is not None else -1
        out_edges = []
        for joint in joint_inputs:
            ivs = [in_vals[j] for j in joint]
            letter = _letter(M, trace_vars, vec, ivs, gen_val)
            succ_vec = tuple(M.delta[s][val_bits[j]] for s, j in zip(vec, joint))
            targets = {d for g, d in nba.edges[q] if guard_satisfied(g, letter)}
            for d in sorted(targets):
                v = nid((succ_vec, e_next, d))
                out_edges.append((joint, v))
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        edges[u] = out_edges

    accepting = {i for i, (_, _, q) in enumerate(nodes) if q in nba.accepting}
    return ProductGraph(nodes, edges, [index[n] for n in init_nodes], accepting)


def _find_accepting_lasso(pg: ProductGraph):
    """Path and cycle through an accepting node inside a cyclic component, or None."""
    succ = {u: sorted({v for _, v in es}) for u, es in pg.edges.items()}
    sccs = accepting_sccs(len(pg.nodes), succ, pg.accepting)
    if not sccs:
        return None
    # the last such SCC in reverse topological order, at its smallest accepting node
    comp = sccs[-1]
    v = min(comp & pg.accepting)

    def bfs_labeled(starts, goal, allowed=None):
        prev: dict = {}
        queue = []
        for s in starts:
            prev[s] = None
            queue.append(s)
        found = None
        while queue:
            u = queue.pop(0)
            if u == goal:
                found = u
                break
            for lbl, w in pg.edges.get(u, ()):
                if allowed is not None and w not in allowed:
                    continue
                if w not in prev:
                    prev[w] = (u, lbl)
                    queue.append(w)
        if found is None:
            return None
        labels = []
        u = found
        while prev[u] is not None:
            p, lbl = prev[u]
            labels.append(lbl)
            u = p
        return list(reversed(labels))

    prefix_labels = bfs_labeled(pg.initial, v)
    if prefix_labels is None:
        return None
    # one step out of v staying in the component, then back to v
    loop_labels = None
    for lbl, w in pg.edges.get(v, ()):
        if w == v:
            loop_labels = [lbl]
            break
        if w in comp:
            back = bfs_labeled([w], v, allowed=comp)
            if back is not None:
                loop_labels = [lbl] + back
                break
    if loop_labels is None:
        return None
    return prefix_labels, loop_labels


def _labels_to_input_lassos(
    M: MooreSystem, trace_vars: list, prefix_labels, loop_labels
) -> list:
    in_vals = all_valuations(M.inputs)
    sig = frozenset(M.inputs)
    out = []
    for j, _ in enumerate(trace_vars):
        pre = tuple(in_vals[joint[j]] for joint in prefix_labels)
        loop = tuple(in_vals[joint[j]] for joint in loop_labels)
        out.append(LassoTrace(sig, pre, loop))
    return out


def _check(M: MooreSystem, trace_vars: list, formula: Formula, E=None):
    """(True, None) when no run of the product violates formula, else (False,
    one counterexample input lasso per trace variable)."""
    pg = build_product(M, trace_vars, ltl_to_nba(Not(formula)), E)
    lasso = _find_accepting_lasso(pg)
    if lasso is None:
        return True, None
    return False, _labels_to_input_lassos(M, trace_vars, *lasso)


def mc_universal(M: MooreSystem, body: Formula, trace_vars: Optional[list] = None):
    """Does M satisfy the body for all assignments of its traces to the variables?

    Returns (True, None) or (False, counterexample input lassos, one per variable).
    """
    if trace_vars is None:
        trace_vars = body_trace_vars(body)
    return _check(M, trace_vars or ["pi"], body)


def generator_vars(E: ExistGenerator) -> list:
    seen = []
    for s in E.signals:
        _, var = split_atom(s)
        if var not in seen:
            seen.append(var)
    return seen


def mc_exists_forall(M: MooreSystem, E: Optional[ExistGenerator], body: Formula):
    """Check the body with existential copies fixed to the generator's word.

    Universal variables range over all branches of M; the consistency
    requirement that every generated witness is itself a branch of M is
    conjoined for the universal copy that `consistency_anchor` names, as
    `prepare` does. Returns (True, None) or (False, input lassos).
    """
    vars_all = body_trace_vars(body)
    evars = generator_vars(E) if E is not None else []
    uvars = [v for v in vars_all if v not in evars]
    anchor = consistency_anchor(body, evars)
    if not uvars:
        uvars = [anchor]
    checked = body
    if evars:
        checked = And(body, build_consistency(evars, anchor, M.inputs, M.outputs))
    return _check(M, uvars, checked, E)
