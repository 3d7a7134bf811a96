"""SAT-based bounded synthesis of Moore implementations and witness generators."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .automata import NBA, flatten_atom, ltl_to_nba, split_atom
from .formula import (
    Formula,
    Not,
    QuantKind,
    SpecDocument,
    SpecError,
    check_well_formed,
    extract_prefix,
    to_nnf,
)
from .fragments import (
    FragmentVerdict,
    LINEAR_CANDIDATE,
    NO_UNIVERSAL,
    SINGLE_UNIVERSAL,
    UNDEC_FORALL_EXISTS,
    classify,
)
from .machines import ExistGenerator, MooreSystem, all_valuations
from .mc import body_trace_vars, mc_exists_forall
from .reductions import (
    ReductionTrace,
    eliminate_knowledge,
    to_hyperltl,
    with_consistency,
)
from .sat import solve_clauses

ALLOWED_CLASSES = (NO_UNIVERSAL, SINGLE_UNIVERSAL, LINEAR_CANDIDATE)
# encode's clause families in CNF order; "transitions" includes the initial nodes
CLAUSE_FAMILIES = (
    "totality",
    "state_order",
    "guard_conjunctions",
    "step_definitions",
    "counter_steps",
    "transitions",
)
# an accepting SCC's counter kind by (reads a system copy, reads the generator)
COUNTER_KINDS = {(False, False): "none", (True, False): "system", (False, True): "generator", (True, True): "mixed"}


class SolverFailure(Exception):
    """The solver ran past its time limit."""

    attempts = ()  # out of `search`: the points solved before the failure


class EncoderSoundnessError(Exception):
    """A SAT model failed post-decode verification; the encoding is wrong."""

    attempts = ()  # out of `search`: the points solved before the failure


@dataclass
class SynthesisInstance:
    inputs: tuple
    outputs: tuple
    exist_vars: tuple
    universal_vars: tuple
    core: Formula
    body: Formula
    verdict: FragmentVerdict
    trace: ReductionTrace
    designated_input: Optional[str]

    @property
    def k(self) -> int:
        return len(self.universal_vars)

    @cached_property
    def nba(self) -> NBA:
        """Buchi automaton for the negated body, built once per instance."""
        return ltl_to_nba(Not(self.body))

    @cached_property
    def gen_signals(self) -> tuple:
        """The generator's signals: each declared input and output of each
        existential copy, copy by copy."""
        return tuple(flatten_atom(a, j) for j in self.exist_vars for a in self.inputs + self.outputs)

    @cached_property
    def guards(self) -> tuple:
        """Each automaton state's edges, as (admitted, lits, q2, counted),
        compiled once per instance.

        A guard is a consistent cube, so it admits some input on every copy, and
        the joint inputs it admits are the product of what it admits on each
        copy: `admitted` holds one tuple of indices into
        `all_valuations(inputs)` per universal copy. `lits` are its other
        atoms as (u, name, value): output `name` of copy u, or generator signal
        `name` when u = k. `counted` says that the edge stays inside its
        accepting SCC.
        """
        in_vals = all_valuations(self.inputs)
        upos = {v: i for i, v in enumerate(self.universal_vars)}
        scc_of, _ = self.nba.sccs
        guards = []
        for q, edges in enumerate(self.nba.edges):
            compiled = []
            for g, q2 in edges:
                ins, lits = [[] for _ in upos], []
                for sig, val in g:
                    a, var = split_atom(sig)
                    if var in upos and a in self.inputs:
                        ins[upos[var]].append((a, val))
                    elif var in upos:
                        lits.append((upos[var], a, val))
                    elif var in self.exist_vars:
                        lits.append((self.k, sig, val))
                    else:
                        raise SpecError(f"atom {sig!r} bound to no copy")
                admitted = tuple(
                    tuple(i for i, vals in enumerate(in_vals) if all((a in vals) == val for a, val in c)) for c in ins
                )
                # a step that leaves its accepting SCC closes no counted cycle:
                # reachability only
                compiled.append((admitted, lits, q2, scc_of[q] == scc_of[q2] >= 0))
            guards.append(tuple(compiled))
        return tuple(guards)

    @cached_property
    def scc_reads(self) -> tuple:
        """What the guards inside each accepting SCC read, as (copies, generator).

        `copies` are the universal copies whose outputs appear in the guard of
        some edge between two states of the SCC, in `universal_vars` order;
        `generator` says that some existential-copy signal appears there.
        Both come from the counted edges of `guards`.
        """
        scc_of, weight = self.nba.sccs
        reads = [set() for _ in weight]
        for q, edges in enumerate(self.guards):
            for _, lits, _, counted in edges:
                if counted:
                    reads[scc_of[q]].update(u for u, _, _ in lits)
        return tuple(
            (tuple(v for u, v in enumerate(self.universal_vars) if u in us), self.k in us) for us in reads
        )

    @cached_property
    def state_reads(self) -> tuple:
        """What the guards reachable from each automaton state read, as
        (copies, generator): R(q) and G(q), in the form of `scc_reads`, taken
        from `NBA.reads`.

        An edge q -> q2 gives R(q2) <= R(q) and G(q2) <= G(q), so a copy or
        generator that q does not read is never read again on any run from q.
        For q in an accepting SCC, R(q) holds the copies of its `scc_reads`.
        """
        outputs = [(v, {flatten_atom(o, v) for o in self.outputs}) for v in self.universal_vars]
        return tuple(
            (tuple(v for v, sigs in outputs if not reads.isdisjoint(sigs)), not reads.isdisjoint(self.gen_signals))
            for reads in self.nba.reads
        )


def prepare(
    doc: SpecDocument,
    designated_input: Optional[str] = None,
    force: bool = False,
) -> SynthesisInstance:
    """Reduce a specification document to an exists*-forall* synthesis instance."""
    issues = check_well_formed(doc)
    if issues:
        raise SpecError("; ".join(issues))
    tr = ReductionTrace()
    f = to_nnf(doc.formula)
    tr.record("nnf", doc.formula, f, "negation normal form")

    f2 = eliminate_knowledge(f)
    if f2 is not f:
        tr.record("eliminate_knowledge", f, f2, "knowledge operators replaced by bound sequences")
        f = f2

    prefix, _ = extract_prefix(f)
    verdict = classify(prefix)
    if verdict.kind not in ALLOWED_CLASSES and not force:
        raise SpecError(
            f"prefix class {verdict.kind} is outside the synthesizable fragments "
            f"({verdict.justification}); pass force to proceed bound-relative"
        )

    designated = designated_input
    if designated is not None and designated not in doc.inputs:
        raise SpecError(f"designated input {designated!r} is not a declared input")
    if any(not e.kind.is_trace for e in prefix):
        if designated is None:
            if not doc.inputs:
                raise SpecError("propositional quantifiers need a designated input, but no inputs are declared")
            designated = doc.inputs[0]
        f2 = to_hyperltl(f, designated)
        tr.record(
            "to_hyperltl",
            f,
            f2,
            f"propositional quantifiers replaced by trace quantifiers reading {designated!r}",
        )
        f = f2

    prefix, core = extract_prefix(f)
    exist_vars = [e.var for e in prefix if e.kind == QuantKind.TRACE_EXISTS]
    declared_universal = [e.var for e in prefix if e.kind == QuantKind.TRACE_FORALL]
    if any(not e.kind.is_trace for e in prefix):
        raise SpecError("internal: propositional quantifiers survived the reduction")
    if not exist_vars and not declared_universal:
        raise SpecError("no trace quantifiers: no universal copy to range over the strategy tree")

    # existential witnesses are chosen uniformly, before the universal traces;
    # for quantifiers written after a universal this reads as an under-approximation
    if classify(prefix).kind == UNDEC_FORALL_EXISTS:
        tr.record(
            "uniformize",
            f,
            f,
            "existential witnesses after the universal block are fixed up front (sound for positives only)",
        )

    # the universal copies are the ones the checked body reads, as in mc
    body = with_consistency(core, exist_vars, doc.inputs, doc.outputs)
    universal_vars = [v for v in body_trace_vars(body) if v not in exist_vars]
    for v in universal_vars:
        if v not in declared_universal:
            tr.record(
                "probe",
                f,
                f,
                f"fresh universal copy {v!r} added so witnesses are anchored to branches of the system",
            )
    if exist_vars:
        tr.record(
            "consistency",
            core,
            body,
            "each existential copy must agree with the system branch sharing its inputs",
        )
    return SynthesisInstance(
        inputs=tuple(doc.inputs),
        outputs=tuple(doc.outputs),
        exist_vars=tuple(exist_vars),
        universal_vars=tuple(universal_vars),
        core=core,
        body=body,
        verdict=verdict,
        trace=tr,
        designated_input=designated,
    )


# ---------------------------------------------------------------------------
# encoding


@dataclass
class ConstraintProblem:
    nvars: int
    clauses: list
    n: int
    m: int
    lambda_max: int
    instance: SynthesisInstance
    var_maps: dict
    comments: list = field(default_factory=list)


def _scc_bounds(instance: SynthesisInstance, n: int, m: int) -> list:
    """Counter height of each accepting SCC C, in marks: n^|R| * m^[gen] * |F & C|.

    The counter of C ranges over C's nodes projected onto what C's guards
    read (`SynthesisInstance.scc_reads`): the system copies R and, if read,
    the generator. A projected path that closes no cycle through an accepting
    step enters each accepting projected node at most once, so this many
    marks suffice; a projected cycle lifts to a product cycle as `encode`'s
    docstring shows.
    """
    _, weight = instance.nba.sccs
    return [
        n ** len(copies) * (m if gen else 1) * w for (copies, gen), w in zip(instance.scc_reads, weight)
    ]


def encode(instance: SynthesisInstance, n: int, m: int) -> ConstraintProblem:
    """Constraint system for an n-state system and m-state generator.

    A product node is (q, sv, e): an automaton state q, the states sv of the
    universal copies in R(q), and the generator state e if G(q), else None
    (`SynthesisInstance.state_reads`). R(q) holds the copies whose outputs
    some guard reachable from q reads; G(q) says whether such a guard reads
    an existential-copy signal. An edge q -> q2 names the step literals of
    the copies in R(q2) only, and the generator's loop-back literal only if
    G(q2). This is exact. R and G are closed forward (R(q2) <= R(q) on every
    edge), so a dropped component is never read again, and every dropped
    component is total: a system steps on every input, a guard is a
    consistent cube and so admits some input on every copy, and the
    generator is a deterministic lasso. So a projected path from a reachable
    node lifts to a product path, and a projected cycle with an accepting
    step, repeated, returns by pigeonhole to one product node: it lifts to a
    reachable product cycle with the same accepting steps. The same holds for
    the coarser projection of each counter (`_scc_bounds`), which drops the
    copies and generator that its SCC's guards do not read.

    Every system state j >= 1 must be entered from a state below j (one
    `state_order` clause per j), which cuts most of the n! renumberings of a
    machine. This keeps every verdict: renumber the reachable states of a
    model in BFS order from 0, so each is entered from its BFS parent, which
    is lower. Then fill each remaining index j with a copy of the target t of
    delta(j-1, 0) and point that one transition at the copy. Since t <= j-1,
    that edge was never the edge that enters t from a lower state, so the
    earlier clauses still hold, and no branch of the system changes.

    Each projected counter is a set of marks 1..lambda (`counter_steps`): an
    accepting step marks 1 at its target and carries mark j to j+1, any other
    step carries j to j, and an accepting step's source lacks mark lambda.
    Around a reachable cycle with an accepting step the largest mark would
    never fall yet rise, so no model has one; marks need no order between them.
    """
    if n < 1 or m < 1:
        raise SpecError("bounds must be at least 1")
    outputs = instance.outputs
    k = instance.k
    m_eff = m if instance.exist_vars else 1

    nba = instance.nba
    Q = nba.n_states

    V = 1 << len(instance.inputs)
    gen_signals = instance.gen_signals
    guards = instance.guards

    scc_of, _ = nba.sccs
    scc_lam = _scc_bounds(instance, n, m)
    lam = max(scc_lam, default=0)
    lam_of = [scc_lam[c] if c >= 0 else 0 for c in scc_of]

    nxt = [0]

    def new_var() -> int:
        nxt[0] += 1
        return nxt[0]

    d_var = [[[new_var() for _ in range(n)] for _ in range(V)] for _ in range(n)]
    out_var = [{o: new_var() for o in outputs} for _ in range(n)]
    # the generator is a lasso: 0 -> 1 -> ... -> m-1, then back to the one j
    # whose back[j] holds; without existential copies it is one silent state
    back_var = [new_var() for _ in range(m_eff)] if m_eff > 1 else []
    gen_var = [{sig: new_var() for sig in gen_signals} for _ in range(m_eff)]
    gen_succ = [[(e + 1, None)] for e in range(m_eff - 1)]
    gen_succ.append(list(enumerate(back_var)) or [(0, None)])

    # R(q) as copy positions, and G(q)
    upos = {v: i for i, v in enumerate(instance.universal_vars)}
    reads = [(tuple(upos[v] for v in copies), gen) for copies, gen in instance.state_reads]
    # product node (q, sv, e) is nodes[base[q] + sv_i * width + e], where sv_i
    # is sv's place in product(range(n), repeat=|R(q)|), width is m_eff if
    # G(q) else 1, and e counts as 0 when it is None; its reach variable is
    # r1 + its index
    nodes: list = []
    base = []
    for q, (R, gen) in enumerate(reads):
        base.append(len(nodes))
        es = range(m_eff) if gen else (None,)
        nodes.extend((q, sv, e) for sv in itertools.product(range(n), repeat=len(R)) for e in es)
    r1 = nxt[0] + 1
    nxt[0] += len(nodes)

    # counters only for nodes whose automaton state lies in an accepting SCC,
    # one per projection onto what that SCC reads (_scc_bounds), shared by
    # the nodes that agree there; l_start[node] is its first "mark" variable
    # (mark j is l_start[node] + j - 1), None for the other nodes
    counter_vars_by_kind = dict.fromkeys(COUNTER_KINDS.values(), 0)
    l_base = nxt[0]
    l_start: list = [None] * len(nodes)
    projected: dict = {}
    for node, (q, sv, e) in enumerate(nodes):
        c = scc_of[q]
        if c < 0:
            continue
        copies, gen = instance.scc_reads[c]
        state = dict(zip(reads[q][0], sv))
        key = (q, tuple(state[upos[v]] for v in copies), e if gen else None)
        ls = projected.get(key)
        if ls is None:
            ls = projected[key] = nxt[0] + 1
            nxt[0] += scc_lam[c]
            counter_vars_by_kind[COUNTER_KINDS[bool(copies), gen]] += scc_lam[c]
        l_start[node] = ls
    counter_vars = nxt[0] - l_base

    # clauses by family (CLAUSE_FAMILIES), concatenated in that order
    totality, state_order, conj, steps, counter, trans = ([] for _ in CLAUSE_FAMILIES)

    def exactly_one(row: list):
        totality.append(list(row))
        totality.extend([-row[a], -row[b]] for a in range(len(row)) for b in range(a + 1, len(row)))

    # deterministic totality of the system, and one loop-back of the generator
    for s in range(n):
        for iv in range(V):
            exactly_one(d_var[s][iv])
    if back_var:
        exactly_one(back_var)

    # symmetry breaking: some transition enters state j from a state below j
    for j in range(1, n):
        state_order.append([d_var[i][iv][j] for i in range(j) for iv in range(V)])

    add = trans.append
    # initial nodes: every copy in R(q0) in state 0, and the generator in
    # state 0 if G(q0); that is the first node of q0's block
    for q0 in sorted(nba.initial):
        add([r1 + base[q0]])

    conj_cache: dict = {}

    def conj_lit(lits: frozenset) -> Optional[int]:
        """Aux variable forced true when all bit literals hold; None for empty."""
        if not lits:
            return None
        v = conj_cache.get(lits)
        if v is None:
            v = conj_cache[lits] = new_var()
            conj.append([-x for x in sorted(lits)] + [v])
        return v

    # step(s, F, s2) holds when some input valuation in F moves state s to
    # s2: d(s, iv, s2) itself when F = {iv}, else a fresh variable implied by
    # each such d. It occurs only negatively in the transition clauses, so
    # this one-way definition is equisatisfiable with one transition clause
    # per admitted joint input
    step_var: dict = {}

    def step_lit(s: int, F: tuple, s2: int) -> int:
        if len(F) == 1:
            return d_var[s][F[0]][s2]
        y = step_var.get((s, F, s2))
        if y is None:
            y = step_var[(s, F, s2)] = new_var()
            steps.extend([-d_var[s][iv][s2], y] for iv in F)
        return y

    # per pair of projected counters inside one counted SCC, keyed on their
    # first variables: an activation variable that implies the mark clauses;
    # every counted SCC holds an accepting state, so its height lam_c >= 1
    counter_act: dict = {}

    def counter_lit(ls: int, ls2: int, q2: int) -> int:
        b = counter_act.get((ls, ls2))
        if b is None:
            b = counter_act[(ls, ls2)] = new_var()
            add_c = counter.append
            lam_c = lam_of[q2]
            l1, l2 = ls - 1, ls2 - 1
            if q2 in nba.accepting:
                add_c([-b, l2 + 1])
                for j in range(1, lam_c):
                    add_c([-b, -(l1 + j), l2 + j + 1])
                add_c([-b, -(l1 + lam_c)])
            else:
                for j in range(1, lam_c + 1):
                    add_c([-b, -(l1 + j), l2 + j])
        return b

    # each generator state's successors, as (e2, antecedent literals)
    gen_tails = [[(e2, [] if back is None else [-back]) for e2, back in succ] for succ in gen_succ]
    # per (q2, state and admitted inputs of each copy in R(q2)): each
    # successor sv2's node index at generator state 0, and the negated step
    # literals that lead there; q2 fixes the successor's whole layout
    succ_rows: dict = {}

    for node, (q, sv, e) in enumerate(nodes):
        R, gen = reads[q]
        state = dict(zip(R, sv))
        # the output and generator variables a guard's other atoms read
        lit_vars = {u: out_var[s] for u, s in state.items()}
        if gen:
            lit_vars[k] = gen_var[e]
        rn = r1 + node
        ls = l_start[node]
        for admitted, lits, q2, counted in guards[q]:
            residual = {lit_vars[u][a] if val else -lit_vars[u][a] for u, a, val in lits}
            if any(-b in residual for b in residual):
                continue
            ok = conj_lit(frozenset(residual))
            ok_tail = [] if ok is None else [-ok]
            R2, gen2 = reads[q2]
            tails = [(e2, back + ok_tail) for e2, back in gen_tails[e]] if gen2 else [(0, ok_tail)]
            key = (q2, tuple((state[u], admitted[u]) for u in R2))
            rows = succ_rows.get(key)
            if rows is None:
                width2 = m_eff if gen2 else 1
                rows = succ_rows[key] = [
                    (base[q2] + i * width2, [-step_lit(state[u], admitted[u], s2) for u, s2 in zip(R2, sv2)])
                    for i, sv2 in enumerate(itertools.product(range(n), repeat=len(R2)))
                ]
            for base2, nd in rows:
                for e2, tail in tails:
                    node2 = base2 + e2
                    if node2 != node:  # a self-loop's reach clause is a tautology
                        add([*nd, *tail, -rn, r1 + node2])
                    if counted:
                        add([*nd, *tail, -rn, counter_lit(ls, l_start[node2], q2)])

    families = (totality, state_order, conj, steps, counter, trans)
    var_maps = {
        "d": d_var,
        "out": out_var,
        "gen": gen_var,
        "gen_succ": gen_succ,
        "gen_signals": gen_signals,
        "reach_nodes": len(nodes),
        "counters": {nodes[i]: ls for i, ls in enumerate(l_start) if ls is not None},
        "lam_of": lam_of,
        "counter_vars": counter_vars,
        "counter_vars_by_kind": counter_vars_by_kind,
        "step": step_var,
        "clauses_by_family": {f: len(c) for f, c in zip(CLAUSE_FAMILIES, families)},
        "m_eff": m_eff,
    }
    comments = [
        f"bounded synthesis: n={n} m={m} k={k} nba={Q} lambda={lam}",
        f"vars: delta 1..{n*V*n}, outputs, generator, reach at {r1}, one per node (q, states of R(q), "
        f"generator if G(q)): {len(nodes)}, {counter_vars} counters at {l_base+1}, one per node of an "
        f"accepting SCC projected onto what it reads, {len(step_var)} step literals, one per (state, "
        "copy's admitted inputs, successor)",
    ]
    return ConstraintProblem(
        nvars=nxt[0],
        clauses=[cl for c in families for cl in c],
        n=n,
        m=m,
        lambda_max=lam,
        instance=instance,
        var_maps=var_maps,
        comments=comments,
    )


# ---------------------------------------------------------------------------
# solving


def decode(problem: ConstraintProblem, model: set):
    """Model to (MooreSystem, ExistGenerator or None).

    Raises EncoderSoundnessError when some state j >= 1 is entered from no
    state below j: the `state_order` clauses forbid that, so every decoded
    system is fully reachable. Each error names the point (n, m).
    """
    inst = problem.instance
    n = problem.n
    at = f"at ({n},{problem.m})"
    vm = problem.var_maps
    inputs, outputs = inst.inputs, inst.outputs
    V = 1 << len(inputs)

    def true(v: int) -> bool:
        return v in model

    delta = []
    for s in range(n):
        row = []
        for iv in range(V):
            hits = [s2 for s2 in range(n) if true(vm["d"][s][iv][s2])]
            if len(hits) != 1:
                raise EncoderSoundnessError(f"transition ({s},{iv}) decoded to {hits} {at}")
            row.append(hits[0])
        delta.append(tuple(row))
    for j in range(1, n):
        if all(j not in delta[i] for i in range(j)):
            raise EncoderSoundnessError(f"state {j} is entered from no state below it {at}")
    labels = tuple(
        frozenset(o for o in outputs if true(vm["out"][s][o])) for s in range(n)
    )
    system = MooreSystem(tuple(inputs), tuple(outputs), labels, tuple(delta), 0)

    generator = None
    if inst.exist_vars:
        m_eff = vm["m_eff"]
        hits = [j for j, back in vm["gen_succ"][-1] if back is None or true(back)]
        if len(hits) != 1:
            raise EncoderSoundnessError(f"generator loop-back decoded to {hits} {at}")
        glabels = tuple(
            frozenset(sig for sig in vm["gen_signals"] if true(vm["gen"][e][sig]))
            for e in range(m_eff)
        )
        generator = ExistGenerator(
            tuple(vm["gen_signals"]), glabels, tuple(range(1, m_eff)) + (hits[0],), 0
        )

    return system, generator


@dataclass
class SynthesisResult:
    status: str  # "sat" | "unsat"
    n: int
    m: int
    lambda_max: int
    system: Optional[MooreSystem] = None
    generator: Optional[ExistGenerator] = None
    stats: dict = field(default_factory=dict)


def solve(problem: ConstraintProblem, timeout=None) -> SynthesisResult:
    """Run the bundled solver on an encoded problem; decode and verify any model.

    `stats` gets the size of the negated body's automaton (`nba_states`,
    `nba_accepting`, `nba_edges`), the number of product nodes with a reach
    variable (`reach_nodes`: the sum over automaton states q of
    n^|R(q)| * m^[G(q)]), the seconds of the solve (`solve_s`: clause
    load and search) and of the verification (`verify_s`: decode and model
    check, 0.0 when unsat). Raises SolverFailure when the solver runs past
    `timeout` seconds; it and EncoderSoundnessError name the point (n, m).
    """
    t0 = time.perf_counter()
    at = f"at ({problem.n},{problem.m})"
    deadline = None if timeout is None else time.monotonic() + timeout
    status, model, counts = solve_clauses(problem.nvars, problem.clauses, deadline)
    if status is None:
        raise SolverFailure(f"solver timed out after {timeout}s {at}")
    t1 = time.perf_counter()
    nba = problem.instance.nba
    stats = {
        "nba_states": nba.n_states,
        "nba_accepting": len(nba.accepting),
        "nba_edges": len(nba.transitions),
        "vars": problem.nvars,
        "clauses": len(problem.clauses),
        "lambda": problem.lambda_max,
        "reach_nodes": problem.var_maps["reach_nodes"],
        "counter_vars": problem.var_maps["counter_vars"],
        "counter_vars_by_kind": problem.var_maps["counter_vars_by_kind"],
        "step_vars": len(problem.var_maps["step"]),
        "clauses_by_family": problem.var_maps["clauses_by_family"],
        **counts,
        "solve_s": t1 - t0,
        "verify_s": 0.0,
    }
    if not status:
        return SynthesisResult(
            "unsat", problem.n, problem.m, problem.lambda_max, stats=stats
        )
    system, generator = decode(problem, set(model))
    ok, cex = mc_exists_forall(system, generator, problem.instance.core)
    stats["verify_s"] = time.perf_counter() - t1
    if not ok:
        raise EncoderSoundnessError(
            f"SAT model {at} fails containment verification; counterexample inputs: "
            + "; ".join(str((c.prefix, c.loop)) for c in (cex or []))
        )
    return SynthesisResult(
        "sat",
        problem.n,
        problem.m,
        problem.lambda_max,
        system=system,
        generator=generator,
        stats=stats,
    )


def solve_at_bounds(
    instance: SynthesisInstance,
    n: int,
    m: int,
    timeout=None,
) -> SynthesisResult:
    """Verdict at one bound point: one encode, one solve.

    The encoding is exact at (n, m), by the lifting argument in `encode`'s
    docstring, so UNSAT proves that no n-state system with an m-state
    generator exists. `stats` also gets `encode_s`.
    """
    t0 = time.perf_counter()
    problem = encode(instance, n, m)
    encode_s = time.perf_counter() - t0
    res = solve(problem, timeout)
    res.stats["encode_s"] = encode_s
    return res


def search(
    instance: SynthesisInstance,
    max_system: int,
    max_exists: int,
    timeout=None,
):
    """First SAT result over (n, m) in nondecreasing n+m order, else the attempts."""
    if max_system < 1 or max_exists < 1:
        raise SpecError("bounds must be at least 1")
    m_cap = max_exists if instance.exist_vars else 1
    points = sorted(
        ((n, m) for n in range(1, max_system + 1) for m in range(1, m_cap + 1)),
        key=lambda p: (p[0] + p[1], p[0], p[1]),
    )
    attempts = []
    for n, m in points:
        try:
            res = solve_at_bounds(instance, n, m, timeout)
        except (SolverFailure, EncoderSoundnessError) as e:
            e.attempts = attempts
            raise
        attempts.append(res)
        if res.status == "sat":
            return res, attempts
    return None, attempts
