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
    Knowledge,
    Not,
    QuantKind,
    SpecDocument,
    SpecError,
    check_well_formed,
    extract_prefix,
    to_nnf,
    walk,
)
from .fragments import (
    FragmentVerdict,
    LINEAR_CANDIDATE,
    NO_UNIVERSAL,
    SINGLE_UNIVERSAL,
    classify,
)
from .machines import ExistGenerator, MooreSystem, all_valuations
from .mc import body_trace_vars, mc_exists_forall
from .reductions import (
    ReductionTrace,
    collapse,
    eliminate_knowledge,
    to_hyperltl,
    with_consistency,
)
from .sat import solve_clauses

ALLOWED_CLASSES = (NO_UNIVERSAL, SINGLE_UNIVERSAL, LINEAR_CANDIDATE)


class SolverFailure(Exception):
    """The solver ran past its time limit."""


class EncoderSoundnessError(Exception):
    """A SAT model failed post-decode verification; the encoding is wrong."""


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


def prepare(
    doc: SpecDocument,
    designated_input: Optional[str] = None,
    do_collapse: bool = False,
    force: bool = False,
) -> SynthesisInstance:
    """Reduce a specification document to an exists*-forall* synthesis instance."""
    issues = check_well_formed(doc)
    if issues:
        raise SpecError("; ".join(issues))
    tr = ReductionTrace()
    f = to_nnf(doc.formula)
    tr.record("nnf", doc.formula, f, "negation normal form")

    if any(isinstance(g, Knowledge) for g in walk(f)):
        f2 = eliminate_knowledge(f)
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

    if do_collapse:
        f2 = collapse(f)
        tr.record("collapse", f, f2, "leading universal trace quantifiers identified")
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
    first_forall = next(
        (i for i, e in enumerate(prefix) if e.kind == QuantKind.TRACE_FORALL), None
    )
    if first_forall is not None and any(
        e.kind == QuantKind.TRACE_EXISTS for e in list(prefix)[first_forall + 1 :]
    ):
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
    k: int
    lambda_max: int
    instance: SynthesisInstance
    var_maps: dict
    comments: list = field(default_factory=list)


def _scc_bounds(instance: SynthesisInstance, n: int, m: int) -> list:
    """Sufficient counter bound of each automaton SCC: one step per rejecting
    product node whose automaton state lies in it, n^k * m * |F & C|."""
    m_eff = m if instance.exist_vars else 1
    _, weight = instance.nba.sccs
    return [(n**instance.k) * m_eff * w for w in weight]


def encode(instance: SynthesisInstance, n: int, m: int) -> ConstraintProblem:
    """Constraint system for an n-state system and m-state generator."""
    if n < 1 or m < 1:
        raise SpecError("bounds must be at least 1")
    inputs = instance.inputs
    outputs = instance.outputs
    uvars = list(instance.universal_vars)
    evars = list(instance.exist_vars)
    k = len(uvars)
    upos = {v: i for i, v in enumerate(uvars)}
    m_eff = m if evars else 1

    nba = instance.nba
    Q = nba.n_states
    rejecting = set(nba.accepting)

    in_vals = all_valuations(inputs)
    V = len(in_vals)
    gen_signals = tuple(flatten_atom(a, j) for j in evars for a in tuple(inputs) + tuple(outputs))

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

    svecs = list(itertools.product(range(n), repeat=k))
    iv_vecs = list(itertools.product(range(V), repeat=k))
    n_nodes = len(svecs) * m_eff * Q
    # product node (svec_i, e, q) is (svec_i * m_eff + e) * Q + q; its reach
    # variable is r1 + node, its "annotation >= j" variable l_start[node] + j - 1
    r1 = nxt[0] + 1
    nxt[0] += n_nodes

    # counters only for nodes whose automaton state lies in an SCC with a bound
    l_base = nxt[0]
    l_start = []
    for node in range(n_nodes):
        l_start.append(nxt[0] + 1)
        nxt[0] += lam_of[node % Q]
    counter_vars = nxt[0] - l_base

    clauses: list = []
    add = clauses.append

    def exactly_one(row: list):
        add(list(row))
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                add([-row[a], -row[b]])

    # deterministic totality of the system, and one loop-back of the generator
    for s in range(n):
        for iv in range(V):
            exactly_one(d_var[s][iv])
    if back_var:
        exactly_one(back_var)

    # annotation order chains
    for node in range(n_nodes):
        ls = l_start[node]
        for j in range(2, lam_of[node % Q] + 1):
            add([-(ls + j - 1), ls + j - 2])

    # initial nodes: all copies in state 0, generator state 0
    for q0 in sorted(nba.initial):
        add([r1 + q0])

    conj_cache: dict = {}

    def conj_lit(lits: frozenset) -> Optional[int]:
        """Aux variable forced true when all bit literals hold; None for empty."""
        if not lits:
            return None
        got = conj_cache.get(lits)
        if got is not None:
            return got
        v = new_var()
        add([-x for x in sorted(lits)] + [v])
        conj_cache[lits] = v
        return v

    # per (node, successor) pair inside one counted SCC: an activation
    # variable and its annotation clauses; every counted SCC holds an
    # accepting state, so its bound lam_c is at least 1
    pair_act: dict = {}

    def pair_clauses(node: int, node2: int, q2: int):
        a = pair_act.get((node, node2))
        if a is None:
            a = new_var()
            pair_act[(node, node2)] = a
            rn = r1 + node
            lam_c = lam_of[q2]
            l1 = l_start[node] - 1
            l2 = l_start[node2] - 1
            add([-rn, -a, r1 + node2])
            if q2 in rejecting:
                add([-rn, -a, l2 + 1])
                for j in range(1, lam_c):
                    add([-rn, -a, -(l1 + j), l2 + j + 1])
                add([-rn, -a, -(l1 + lam_c)])
            else:
                for j in range(1, lam_c + 1):
                    add([-rn, -a, -(l1 + j), l2 + j])
        return a

    # each guard compiled once: the joint inputs it admits (by index into
    # iv_vecs), its system-output atoms (copy, output, value) and its
    # generator atoms (signal, value)
    input_set = set(inputs)
    evar_set = set(evars)
    guards = []
    feasible_at = []  # per automaton state and joint input: its edge indices
    for q in range(Q):
        edges, ins_ok = [], []
        for g, q2 in nba.edges[q]:
            ins, outs, gens = [], [], []
            for sig, val in g:
                a, var = split_atom(sig)
                if var in upos:
                    if a in input_set:
                        ins.append((upos[var], a, val))
                    else:
                        outs.append((upos[var], a, val))
                elif var in evar_set:
                    gens.append((sig, val))
                else:
                    raise SpecError(f"atom {sig!r} bound to no copy")
            # a step that leaves its accepting SCC closes no counted cycle:
            # reachability only
            edges.append((outs, gens, q2, scc_of[q] == scc_of[q2] >= 0))
            ins_ok.append(
                [all((a in in_vals[iv[u]]) == val for u, a, val in ins) for iv in iv_vecs]
            )
        guards.append(edges)
        feasible_at.append(
            [[x for x, row in enumerate(ins_ok) if row[ivi]] for ivi in range(len(iv_vecs))]
        )

    # each generator state's successors, as (e2, antecedent literals)
    gen_tails = [[(e2, [] if back is None else [-back]) for e2, back in succ] for succ in gen_succ]
    unset = object()

    for svec_i, svec in enumerate(svecs):
        # per joint input: each successor vector's first node index and the
        # negated transition literals that lead there
        succ_rows = [
            [
                (svec2_i * m_eff, [-d_var[svec[u]][iv_vec[u]][svec2[u]] for u in range(k)])
                for svec2_i, svec2 in enumerate(svecs)
            ]
            for iv_vec in iv_vecs
        ]
        out_row = [out_var[s] for s in svec]
        for e in range(m_eff):
            gen_row = gen_var[e]
            tails_e = gen_tails[e]
            for q in range(Q):
                node = (svec_i * m_eff + e) * Q + q
                rn = r1 + node
                edges = guards[q]
                # per edge, its successors' antecedent tails (generator
                # loop-back, then the guard's literal), built at its first
                # feasible joint input; None when the guard contradicts itself
                edge_tails = [unset] * len(edges)
                for ivi, rows in enumerate(succ_rows):
                    for x in feasible_at[q][ivi]:
                        outs, gens, q2, counted = edges[x]
                        tails = edge_tails[x]
                        if tails is unset:
                            residual = {
                                out_row[u][a] if val else -out_row[u][a] for u, a, val in outs
                            }
                            residual.update(gen_row[sig] if val else -gen_row[sig] for sig, val in gens)
                            if any(-b in residual for b in residual):
                                tails = None
                            else:
                                ok = conj_lit(frozenset(residual))
                                ok_tail = [] if ok is None else [-ok]
                                tails = [(e2, back + ok_tail) for e2, back in tails_e]
                            edge_tails[x] = tails
                        if tails is None:
                            continue
                        if counted:
                            for base2, nd in rows:
                                for e2, tail in tails:
                                    node2 = (base2 + e2) * Q + q2
                                    add([*nd, *tail, pair_clauses(node, node2, q2)])
                        else:
                            for base2, nd in rows:
                                for e2, tail in tails:
                                    add([*nd, *tail, -rn, r1 + (base2 + e2) * Q + q2])

    var_maps = {
        "d": d_var,
        "out": out_var,
        "gen": gen_var,
        "gen_succ": gen_succ,
        "gen_signals": gen_signals,
        "l_start": l_start,
        "lam_of": lam_of,
        "counter_vars": counter_vars,
        "m_eff": m_eff,
    }
    comments = [
        f"bounded synthesis: n={n} m={m} k={k} nba={Q} lambda={lam}",
        f"vars: delta 1..{n*V*n}, outputs, generator, reach at {r1}, "
        f"{counter_vars} counters at {l_base+1}, local to each automaton SCC",
    ]
    return ConstraintProblem(
        nvars=nxt[0],
        clauses=clauses,
        n=n,
        m=m,
        k=k,
        lambda_max=lam,
        instance=instance,
        var_maps=var_maps,
        comments=comments,
    )


# ---------------------------------------------------------------------------
# solving


def decode(problem: ConstraintProblem, model: set):
    """Model to (MooreSystem, ExistGenerator or None)."""
    inst = problem.instance
    n = problem.n
    vm = problem.var_maps
    inputs, outputs = inst.inputs, inst.outputs
    V = len(all_valuations(inputs))

    def true(v: int) -> bool:
        return v in model

    delta = []
    for s in range(n):
        row = []
        for iv in range(V):
            hits = [s2 for s2 in range(n) if true(vm["d"][s][iv][s2])]
            if len(hits) != 1:
                raise EncoderSoundnessError(f"transition ({s},{iv}) decoded to {hits}")
            row.append(hits[0])
        delta.append(tuple(row))
    labels = tuple(
        frozenset(o for o in outputs if true(vm["out"][s][o])) for s in range(n)
    )
    system = MooreSystem(tuple(inputs), tuple(outputs), labels, tuple(delta), 0)

    generator = None
    if inst.exist_vars:
        m_eff = vm["m_eff"]
        hits = [j for j, back in vm["gen_succ"][-1] if back is None or true(back)]
        if len(hits) != 1:
            raise EncoderSoundnessError(f"generator loop-back decoded to {hits}")
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
    `nba_accepting`, `nba_edges`), the seconds of the solve (`solve_s`: clause
    load and search) and of the verification (`verify_s`: decode and model
    check, 0.0 when unsat). Raises SolverFailure when the solver runs past
    `timeout` seconds.
    """
    t0 = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    status, model, counts = solve_clauses(problem.nvars, problem.clauses, deadline)
    if status is None:
        raise SolverFailure(f"solver timed out after {timeout}s")
    t1 = time.perf_counter()
    nba = problem.instance.nba
    stats = {
        "nba_states": nba.n_states,
        "nba_accepting": len(nba.accepting),
        "nba_edges": len(nba.transitions),
        "vars": problem.nvars,
        "clauses": len(problem.clauses),
        "lambda": problem.lambda_max,
        "counter_vars": problem.var_maps["counter_vars"],
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
            "SAT model fails containment verification; counterexample inputs: "
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

    Every SCC's counter runs to its sufficient bound (_scc_bounds). A product
    cycle projects onto a cycle of the automaton, so it stays inside one SCC
    and the counter there only has to count the rejecting nodes it meets.
    The verdict is therefore exact at (n, m): UNSAT proves that no n-state
    system with an m-state generator exists. `stats` also gets `encode_s`.
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
        res = solve_at_bounds(instance, n, m, timeout)
        attempts.append(res)
        if res.status == "sat":
            return res, attempts
    return None, attempts
