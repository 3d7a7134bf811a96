"""Model checking of Moore systems against trace-quantified bodies."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from operator import getitem
from typing import Optional

from .automata import NBA, flatten_atom, ltl_to_nba, split_atom
from .formula import Formula, Not, SpecError, TraceAtom, Quantifier, walk
from .machines import ExistGenerator, LassoTrace, MooreSystem, all_valuations
from .reductions import with_consistency


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
    """The part of the product of system copies, an optional generator and an
    automaton that the search made, with a lasso of joint-input labels through
    an accepting node, or None when no run is accepted.

    `edges` maps each expanded node to the edges the search took from it, as
    (joint input, target) pairs, one per distinct successor and labelled by
    the first joint input that reaches it; every node in `nodes` was expanded.
    """

    nodes: list
    edges: dict
    initial: list
    lasso: Optional[tuple]


def _guard_masks(nba: NBA, bit: dict) -> list:
    """Each state's edges as (pos, neg, target) masks over the letter bits.

    A positive literal on a signal outside the letter space never holds, so
    its edge is dropped; a negative one always holds.
    """
    out = []
    for es in nba.edges:
        masks = []
        for guard, d in es:
            pos = neg = 0
            for sig, val in guard:
                b = bit.get(sig)
                if b is None:
                    if val:
                        break
                elif val:
                    pos |= b
                else:
                    neg |= b
            else:
                masks.append((pos, neg, d))
        out.append(masks)
    return out


# stand in for the generator when the body has no existential copies, and
# for the system when only a generator's word is checked
_NO_GENERATOR = ExistGenerator((), (frozenset(),), (0,))
_NO_SYSTEM = MooreSystem((), (), (frozenset(),), ((0,),))


def build_product(
    M: MooreSystem,
    trace_vars: list,
    nba: NBA,
    E: Optional[ExistGenerator] = None,
) -> ProductGraph:
    """The product explored depth first from its initial nodes, up to the
    first cycle through an accepting node.

    The product is made on demand: a node's successors are made one at a
    time, as the search asks for its next edge, so the siblings of an edge
    that closes an accepting cycle are never built. The lasso is read from
    the edges taken, which hold the search tree and every edge that merged
    components.
    """
    if E is None:
        E = _NO_GENERATOR
    k = len(trace_vars)
    # one bit per letter signal: the generator's, then each copy's outputs and inputs
    bit: dict = {}
    for sig in E.signals:
        bit.setdefault(sig, 1 << len(bit))
    for var in trace_vars:
        for sig in M.outputs + M.inputs:
            bit.setdefault(flatten_atom(sig, var), 1 << len(bit))

    def mask(sigs) -> int:
        return sum(bit[s] for s in sigs)

    out_masks = [[mask(flatten_atom(o, var) for o in lab) for lab in M.labels] for var in trace_vars]
    in_masks = [[mask(flatten_atom(i, var) for i in val) for val in all_valuations(M.inputs)]
                for var in trace_vars]
    joint_inputs = [
        (joint, sum(in_masks[j][x] for j, x in enumerate(joint)))
        for joint in itertools.product(range(1 << len(M.inputs)), repeat=k)
    ]
    gen_masks = [mask(lab) for lab in E.labels]
    guards = _guard_masks(nba, bit)

    moves: dict = {}    # (system vector, generator state) -> [(joint, letter, successor vector)]
    targets: dict = {}  # (automaton state, letter) -> sorted successor states

    def step(vec, e):
        got = moves.get((vec, e))
        if got is None:
            base = gen_masks[e] | sum(out_masks[j][s] for j, s in enumerate(vec))
            rows = [M.delta[s] for s in vec]
            got = moves[vec, e] = [
                (joint, base | jm, tuple(map(getitem, rows, joint)))
                for joint, jm in joint_inputs
            ]
        return got

    def succ(q, letter):
        got = targets.get((q, letter))
        if got is None:
            got = targets[q, letter] = sorted(
                {d for pos, neg, d in guards[q] if letter & pos == pos and not letter & neg}
            )
        return got

    e_next = E.next_state
    index: dict = {}
    nodes: list = []
    edges: dict = {}

    def nid(node):
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    def expand(u):
        # a successor is made and its edge recorded only when the search asks
        # for the next edge; a successor this node already has is skipped
        vec, e, q = nodes[u]
        e2 = e_next[e]
        out = edges[u] = []
        seen = set()
        for joint, letter, succ_vec in step(vec, e):
            for d in succ(q, letter):
                v = nid((succ_vec, e2, d))
                if v not in seen:
                    seen.add(v)
                    out.append((joint, v))
                    yield v

    # Couvreur's on-the-fly emptiness check: a depth-first search that keeps
    # a stack of SCC roots, each with an accepting node merged into it (or
    # -1), and stops when a back edge closes a cycle through one.
    initial = []     # initial nodes, each made when the search starts from it
    num: dict = {}   # depth-first number of each visited node
    dead = set()     # nodes of finished SCCs
    active = []      # visited nodes not yet dead, in visiting order
    roots = []       # (depth-first number, accepting node or -1)
    stack = []       # (node, iterator over its remaining edges)

    def visit(u):
        num[u] = len(num)
        active.append(u)
        roots.append((num[u], u if nodes[u][2] in nba.accepting else -1))
        stack.append((u, expand(u)))

    for q0 in sorted(nba.initial):
        s0 = nid(((M.initial,) * k, E.initial, q0))
        initial.append(s0)
        if s0 in num:
            continue
        visit(s0)
        while stack:
            u, it = stack[-1]
            for v in it:
                if v not in num:
                    visit(v)
                    break
                if v in dead:
                    continue
                hit = -1
                while True:
                    r, a = roots.pop()
                    hit = max(hit, a)
                    if r <= num[v]:
                        break
                roots.append((r, hit))
                if hit >= 0:
                    comp = {w for w in active if num[w] >= r}
                    lasso = (_labels_to(edges, initial, hit), _labels_to(edges, [hit], hit, comp))
                    return ProductGraph(nodes, edges, initial, lasso)
            else:
                stack.pop()
                if roots[-1][0] == num[u]:
                    roots.pop()
                    while True:
                        w = active.pop()
                        dead.add(w)
                        if w == u:
                            break
    return ProductGraph(nodes, edges, initial, None)


def accepts_lasso(nba: NBA, prefix_vals: list, loop_vals: list) -> bool:
    """Membership of the ultimately periodic word prefix . loop^omega: the
    emptiness search over the word as a generator, with no system copy."""
    assert loop_vals, "a lasso needs a nonempty loop"
    word = list(prefix_vals) + list(loop_vals)
    p, n = len(prefix_vals), len(word)
    signals = tuple(sorted(frozenset().union(*word)))
    E = ExistGenerator(signals, tuple(frozenset(v) for v in word), tuple(range(1, n)) + (p,))
    return build_product(_NO_SYSTEM, [], nba, E).lasso is not None


def _labels_to(edges: dict, starts: list, goal: int, inside=None) -> list:
    """Edge labels of a shortest path from one of starts to goal over the
    explored edges, staying inside the given nodes if any; the path is empty
    only when goal is a start and no inside set is given."""
    if inside is None and goal in starts:
        return []
    prev = dict.fromkeys(starts)
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        for lbl, w in edges.get(u, ()):
            if inside is not None and w not in inside:
                continue
            if w == goal:
                labels = [lbl]
                while prev[u] is not None:
                    u, lbl = prev[u]
                    labels.append(lbl)
                return labels[::-1]
            if w not in prev:
                prev[w] = (u, lbl)
                queue.append(w)
    raise AssertionError("goal not reachable over the explored edges")


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


def generator_vars(E: ExistGenerator) -> list:
    seen = []
    for s in E.signals:
        _, var = split_atom(s)
        if var not in seen:
            seen.append(var)
    return seen


def mc_exists_forall(M: MooreSystem, E: Optional[ExistGenerator], body: Formula):
    """Check the body with existential copies fixed to the generator's word.

    The checked formula is `with_consistency` of the body, as in `prepare`,
    and the universal copies are the other copies it reads; each ranges over
    all branches of M. Returns (True, None), or (False, one counterexample
    input lasso per universal copy).
    """
    evars = generator_vars(E) if E is not None else []
    checked = with_consistency(body, evars, M.inputs, M.outputs)
    uvars = [v for v in body_trace_vars(checked) if v not in evars]
    pg = build_product(M, uvars, ltl_to_nba(Not(checked)), E)
    if pg.lasso is None:
        return True, None
    return False, _labels_to_input_lassos(M, uvars, *pg.lasso)
