"""The textbook bounded-synthesis encoding, a differential oracle for `synth.encode`.

Finkbeiner & Schewe, *Bounded synthesis* (STTT 2013), with a witness
generator for the existential copies. It shares nothing with `synth.encode`
beyond the instance and its automaton of the negated body, and it keeps every
part in its plainest form:

- one annotation counter per product node, of the global height
  n^k * m * |F|, where F is the automaton's set of accepting states
- the generator's full m x m successor matrix, one successor per state
- one transition clause per joint input, naming the transition variable of
  each copy directly; the output and generator literals the guard reads sit
  in the same clause

Each clause of a product edge ends in an edge variable t(v, v2), and t(v, v2)
implies that v2 is reached and that its annotation is at least v's, strictly
above it when v2 is accepting. t occurs positively only there, so this is
equisatisfiable with the clauses that repeat the consequences for every joint
input. The CNF is solved by `sat.Solver`, and a model is decoded and checked by
`mc_exists_forall` before "sat" is returned.
"""

from __future__ import annotations

import itertools

from hypersynth.automata import flatten_atom, split_atom
from hypersynth.machines import ExistGenerator, MooreSystem, all_valuations
from hypersynth.mc import mc_exists_forall
from hypersynth.sat import Solver


def reference_cnf(inst, n: int, m: int):
    """(clauses, decode) of the textbook encoding at bounds (n, m).

    `decode(model)` turns a set of true variables into (system, generator).
    """
    k = inst.k
    uvars = inst.universal_vars
    if not inst.exist_vars:
        m = 1
    nba = inst.nba
    in_vals = all_valuations(inst.inputs)
    V = len(in_vals)
    gen_signals = tuple(
        flatten_atom(a, e) for e in inst.exist_vars for a in inst.inputs + inst.outputs
    )
    height = n**k * m * len(nba.accepting)

    fresh = itertools.count(1)
    d = [[[next(fresh) for _ in range(n)] for _ in range(V)] for _ in range(n)]
    out = [{o: next(fresh) for o in inst.outputs} for _ in range(n)]
    gen = [{sig: next(fresh) for sig in gen_signals} for _ in range(m)]
    gsucc = [[next(fresh) for _ in range(m)] for _ in range(m)]
    svecs = list(itertools.product(range(n), repeat=k))
    nodes = [(sv, e, q) for sv in svecs for e in range(m) for q in range(nba.n_states)]
    reach = {v: next(fresh) for v in nodes}
    # ann[v][j - 1] holds when the annotation of v is at least j
    ann = {v: [next(fresh) for _ in range(height)] for v in nodes}

    clauses = []

    def exactly_one(row):
        clauses.append(list(row))
        clauses.extend([-a, -b] for a, b in itertools.combinations(row, 2))

    for s in range(n):
        for iv in range(V):
            exactly_one(d[s][iv])
    for e in range(m):
        exactly_one(gsucc[e])
    for v in nodes:
        clauses.extend([-ann[v][j], ann[v][j - 1]] for j in range(1, height))
    for q0 in nba.initial:
        clauses.append([reach[(svecs[0], 0, q0)]])

    edge = {}

    def edge_var(v, v2):
        t = edge.get((v, v2))
        if t is None:
            t = edge[(v, v2)] = next(fresh)
            clauses.append([-t, reach[v2]])
            a, b = ann[v], ann[v2]
            if v2[2] in nba.accepting:
                clauses.append([-t, b[0]])
                clauses.extend([-t, -a[j], b[j + 1]] for j in range(height - 1))
                clauses.append([-t, -a[height - 1]])
            else:
                clauses.extend([-t, -a[j], b[j]] for j in range(height))
        return t

    # each automaton transition's input atoms of universal copies, and its other atoms
    split = []
    for src, guard, q2 in nba.transitions:
        read = [(sig, val) for sig, val in guard if _reads_input(sig, inst)]
        split.append((src, read, [x for x in guard if x not in read], q2))

    def literal(sig, val, sv, e):
        prop, copy = split_atom(sig)
        x = out[sv[uvars.index(copy)]][prop] if copy in uvars else gen[e][sig]
        return x if val else -x

    for v in nodes:
        sv, e, q = v
        for ivv in itertools.product(range(V), repeat=k):
            letter = {flatten_atom(a, uvars[u]) for u, iv in enumerate(ivv) for a in in_vals[iv]}
            for src, read, rest, q2 in split:
                if src != q or not all((sig in letter) == val for sig, val in read):
                    continue
                held = {literal(sig, val, sv, e) for sig, val in rest}
                if any(-x in held for x in held):
                    continue
                for sv2 in svecs:
                    moves = [-d[sv[u]][ivv[u]][sv2[u]] for u in range(k)]
                    for e2 in range(m):
                        t = edge_var(v, (sv2, e2, q2))
                        clauses.append(
                            [-reach[v], *moves, -gsucc[e][e2], *(-x for x in held), t]
                        )

    def decode(model):
        delta = tuple(
            tuple(next(s2 for s2 in range(n) if d[s][iv][s2] in model) for iv in range(V))
            for s in range(n)
        )
        labels = tuple(frozenset(o for o in inst.outputs if out[s][o] in model) for s in range(n))
        system = MooreSystem(inst.inputs, inst.outputs, labels, delta, 0)
        if not inst.exist_vars:
            return system, None
        glabels = tuple(frozenset(x for x in gen_signals if gen[e][x] in model) for e in range(m))
        nxt = tuple(next(e2 for e2 in range(m) if gsucc[e][e2] in model) for e in range(m))
        return system, ExistGenerator(gen_signals, glabels, nxt, 0)

    return clauses, decode


def _reads_input(sig: str, inst) -> bool:
    prop, copy = split_atom(sig)
    return copy in inst.universal_vars and prop in inst.inputs


def reference_verdict(inst, n: int, m: int) -> str:
    """"sat" or "unsat" of the textbook encoding; a model must pass `mc`."""
    clauses, decode = reference_cnf(inst, n, m)
    s = Solver()
    s.add_clauses(clauses)
    if not s.solve():
        return "unsat"
    system, generator = decode({x for x in s.model() if x > 0})
    ok, cex = mc_exists_forall(system, generator, inst.core)
    assert ok, f"reference model fails the model checker: {cex}"
    return "sat"
