"""Model checking of Moore systems against trace-quantified bodies."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import getitem, or_
from typing import NamedTuple, Optional

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

    A node is (copy states, generator state, q), projected onto what q still
    reads (`NBA.reads`): a copy's state is -1 when no guard reachable from q
    reads its outputs, and the generator state is None when none reads a
    generator signal. `edges` maps each expanded node to the edges the search
    took from it, as (joint input, target) pairs, one per distinct successor
    and labelled by the first joint input that reaches it; a copy that q
    reads nothing of has input 0 in every label from q. Every node in `nodes`
    was expanded.
    """

    nodes: list
    edges: dict
    initial: list
    lasso: Optional[tuple]


def _guard_masks(nba: NBA, bit: dict) -> tuple:
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
        out.append(tuple(masks))
    return tuple(out)


class _LabelMasks(dict):
    """Memo from a label (a set of signals) to its mask: the sum of each
    signal's bit in `bit_of`, made the first time the label is looked up."""

    def __init__(self, bit_of: dict):
        super().__init__()
        self.bit_of = bit_of

    def __missing__(self, label):
        m = self[label] = sum(self.bit_of[s] for s in label)
        return m


class _Layout(NamedTuple):
    """What `build_product` needs of an automaton over a letter space, apart
    from the machines: built once per (automaton, system signals, copies,
    generator signals), and bounded by `_layout`'s cache.

    Three tables make a call's preamble and successor lookups cheap. Each
    copy's output masks map a system label to its bits in the letter, filled
    the first time a label is seen, so a call formats no signal names. Each
    state's local guard mask holds the bits its own guards read; a guard's
    verdict depends only on its own bits, so successors are looked up under
    the letter cut to that mask. The successor lists live here too, one
    table per state keyed on that cut letter: each list is computed once per
    automaton, by the first call that needs it, and a state q holds at most
    2^popcount(local[q]) of them.
    """

    bit: dict               # letter signal -> its bit
    guards: tuple           # `_guard_masks`
    local: tuple            # per state: its local guard mask, the OR of pos | neg over its edges
    label_masks: tuple      # per copy: its output masks, a `_LabelMasks` from a system label
    gen_label_masks: dict   # `_LabelMasks` from a generator label
    drop: tuple             # per state: per copy, 0 if its state is kept, -1 if dropped: OR it in
    keep_gen: tuple         # per state: whether the generator state is kept
    joints: tuple           # per state: (joint input, input mask) pairs to enumerate
    targets: tuple          # per state: letter & its local mask -> sorted successors, filled on first use


# automata layouts kept; a verify run checks a handful of bodies
_LAYOUT_CACHE_SIZE = 128


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _valuations(inputs: tuple) -> tuple:
    """`all_valuations` of an input tuple, made once; a tuple, as it is shared."""
    return tuple(all_valuations(inputs))


@lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(nba: NBA, inputs: tuple, outputs: tuple, trace_vars: tuple, gen_signals: tuple) -> _Layout:
    # one bit per letter signal: the generator's, then each copy's outputs and inputs
    bit: dict = {}
    for sig in gen_signals:
        bit.setdefault(sig, 1 << len(bit))
    for var in trace_vars:
        for sig in outputs + inputs:
            bit.setdefault(flatten_atom(sig, var), 1 << len(bit))
    in_masks = [
        [sum(bit[flatten_atom(i, var)] for i in val) for val in _valuations(inputs)]
        for var in trace_vars
    ]
    copy_outputs = [{flatten_atom(o, var) for o in outputs} for var in trace_vars]
    copy_signals = [{flatten_atom(s, var) for s in outputs + inputs} for var in trace_vars]
    drop_of: dict = {}  # one shared tuple per distinct drop vector
    joints_of: dict = {}  # enumerated copies -> joint-input list
    drop, keep_gen, joints = [], [], []
    for reads in nba.reads:
        dropped = tuple(-1 if reads.isdisjoint(os) else 0 for os in copy_outputs)
        drop.append(drop_of.setdefault(dropped, dropped))
        keep_gen.append(not reads.isdisjoint(gen_signals))
        # a copy whose signals are never read again keeps input 0
        free = tuple(not reads.isdisjoint(ss) for ss in copy_signals)
        if free not in joints_of:
            joints_of[free] = tuple(
                (joint, sum(in_masks[j][x] for j, x in enumerate(joint)))
                for joint in itertools.product(*(range(1 << len(inputs)) if f else (0,) for f in free))
            )
        joints.append(joints_of[free])
    guards = _guard_masks(nba, bit)
    local = tuple(reduce(or_, (pos | neg for pos, neg, _ in gs), 0) for gs in guards)
    label_masks = tuple(_LabelMasks({o: bit[flatten_atom(o, var)] for o in outputs}) for var in trace_vars)
    return _Layout(
        bit, guards, local, label_masks, _LabelMasks(bit),
        tuple(drop), tuple(keep_gen), tuple(joints), tuple({} for _ in guards),
    )


def _successors(guards: tuple, letter: int) -> list:
    """Sorted targets of the (pos, neg, target) guard masks that the letter meets."""
    return sorted({d for pos, neg, d in guards if letter & pos == pos and not letter & neg})


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

    Each node is projected onto what its automaton state q still reads
    (`NBA.reads`): it keeps a copy's state only if some guard reachable from
    q reads that copy's outputs, and the generator state only if such a guard
    reads a generator signal. A copy none of whose signals is read from q on
    has its input fixed to the first valuation, so it is not enumerated in
    the joint inputs. This is exact. The read sets are closed forward, so a
    dropped component is never read again, and every dropped component is
    total: a system steps on every input and the generator is a
    deterministic lasso. So a projected path lifts to a product path, and a
    projected accepting cycle keeps the kept components constant, so
    repeating it lifts to a product lasso over the same input labels.

    The product is made on demand: a node's successors are made one at a
    time, as the search asks for its next edge, so the siblings of an edge
    that closes an accepting cycle are never built. The lasso is read from
    the edges taken, which hold the search tree and every edge that merged
    components.

    What depends only on the automaton and the letter space is compiled
    once (`_layout`): the letter bits, the guard masks, each state's local
    guard mask, each copy's output masks, the drop and keep tables, the
    joint-input lists and the successor lists, keyed on (state, letter cut
    to the state's local guard mask). Moves are made one joint input at a
    time: a call keeps a memo from (system vector, generator state) to the
    letter bits of the outputs and each copy's step row, and makes a joint's
    letter and successor vector only when the search reaches that joint,
    skipping a joint with no successor. So a call pays for the part of the
    product it explores, the edges it walks and the lasso it returns, and
    for successor lists no earlier call on the automaton needed.
    """
    if E is None:
        E = _NO_GENERATOR
    k = len(trace_vars)
    _, guards, local, label_masks, gen_label_masks, drop, keep_gen, joints, targets = _layout(
        nba, M.inputs, M.outputs, tuple(trace_vars), E.signals
    )

    # a trailing entry serves the dropped state -1: it outputs nothing and stays dropped
    labels = M.labels + (frozenset(),)
    delta = M.delta + ((-1,) * (1 << len(M.inputs)),)
    gen_labels = E.labels

    moves: dict = {}  # (system vector, generator state) -> (output letter bits, each copy's delta row)
    e_next = E.next_state
    index: dict = {}
    nodes: list = []
    edges: dict = {}

    def nid(node):
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        return index[node]

    def project(vec, e, q):
        # the node at q, with -1 and None for what q never reads again
        dq = drop[q]
        if any(dq):
            vec = tuple(map(or_, vec, dq))
        return vec, e if keep_gen[q] else None, q

    def expand(u):
        # a joint input's letter, successor list and successor vector are made
        # only when the search reaches that joint, and a successor is made and
        # its edge recorded only when the search asks for the next edge; a
        # successor this node already has is skipped
        vec, e, q = nodes[u]
        got = moves.get((vec, e))
        if got is None:
            got = moves[vec, e] = (
                (0 if e is None else gen_label_masks[gen_labels[e]])
                | sum(map(getitem, label_masks, map(labels.__getitem__, vec))),
                [*map(delta.__getitem__, vec)],
            )
        base, rows = got
        e2 = None if e is None else e_next[e]
        dq, lq, tq, gq = drop[q], local[q], targets[q], guards[q]
        out = edges[u] = []
        seen = set()
        for joint, jm in joints[q]:
            # a guard's verdict depends only on its own bits, so the letter is
            # cut to the bits that q's guards read
            cut = (base | jm) & lq
            ds = tq.get(cut)
            if ds is None:
                ds = tq[cut] = _successors(gq, cut)
            if not ds:
                continue
            succ_vec = tuple(map(getitem, rows, joint))
            for d in ds:
                # equal drop vectors are one object: `is` means nothing more to drop
                if drop[d] is dq:
                    node = (succ_vec, e2 if keep_gen[d] else None, d)
                else:
                    node = project(succ_vec, e2, d)
                v = index.get(node)
                if v is None:
                    v = index[node] = len(nodes)
                    nodes.append(node)
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
        s0 = nid(project((M.initial,) * k, E.initial, q0))
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


# input lassos kept; counterexamples are short, so the same columns recur
# across machines
_LASSO_CACHE_SIZE = 1024


@lru_cache(maxsize=_LASSO_CACHE_SIZE)
def _input_lasso(inputs: tuple, prefix: tuple, loop: tuple) -> LassoTrace:
    """The input lasso of one copy's prefix and loop columns of valuation
    indices, made once; shared, as a LassoTrace is immutable."""
    in_vals = _valuations(inputs)
    return LassoTrace(frozenset(inputs), tuple(in_vals[x] for x in prefix), tuple(in_vals[x] for x in loop))


def _labels_to_input_lassos(
    M: MooreSystem, trace_vars: list, prefix_labels, loop_labels
) -> list:
    # zip(*labels) gives each copy's column of the joint-input labels
    prefixes = zip(*prefix_labels) if prefix_labels else [()] * len(trace_vars)
    return [_input_lasso(M.inputs, pre, loop) for pre, loop in zip(prefixes, zip(*loop_labels))]


def generator_vars(E: ExistGenerator) -> list:
    seen = []
    for s in E.signals:
        _, var = split_atom(s)
        if var not in seen:
            seen.append(var)
    return seen


# checked bodies kept, with their universal copies and automata
_CHECKED_CACHE_SIZE = 128


@lru_cache(maxsize=_CHECKED_CACHE_SIZE)
def _checked(body: Formula, evars: tuple, inputs: tuple, outputs: tuple) -> tuple:
    """(universal copies, automaton of the negated checked body)."""
    checked = with_consistency(body, evars, inputs, outputs)
    uvars = tuple(v for v in body_trace_vars(checked) if v not in evars)
    return uvars, ltl_to_nba(Not(checked))


def mc_exists_forall(M: MooreSystem, E: Optional[ExistGenerator], body: Formula):
    """Check the body with existential copies fixed to the generator's word.

    The checked formula is `with_consistency` of the body, as in `prepare`,
    and the universal copies are the other copies it reads; each ranges over
    all branches of M. Returns (True, None), or (False, one counterexample
    input lasso per universal copy). The checked body, its copies and its
    automaton are made once per (body, existential copies, signals), and an
    input lasso once per (inputs, valuation indices).
    """
    evars = tuple(generator_vars(E)) if E is not None else ()
    uvars, nba = _checked(body, evars, M.inputs, M.outputs)
    pg = build_product(M, uvars, nba, E)
    if pg.lasso is None:
        return True, None
    return False, _labels_to_input_lassos(M, uvars, *pg.lasso)
