"""SAT-based bounded synthesis of Moore implementations and witness generators."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .automata import NBA, flatten_atom, ltl_to_nba, split_atom
from .formula import (
    And,
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
from .mc import mc_exists_forall
from .reductions import (
    ReductionTrace,
    build_consistency,
    collapse,
    consistency_anchor,
    eliminate_knowledge,
    to_hyperltl,
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

    has_prop = any(not e.kind.is_trace for e in prefix)
    designated = designated_input
    if has_prop:
        if designated is None:
            if not doc.inputs:
                raise SpecError("propositional quantifiers need a designated input, but no inputs are declared")
            designated = doc.inputs[0]
        elif designated not in doc.inputs:
            raise SpecError(f"designated input {designated!r} is not a declared input")
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
    universal_vars = [e.var for e in prefix if e.kind == QuantKind.TRACE_FORALL]
    if any(not e.kind.is_trace for e in prefix):
        raise SpecError("internal: propositional quantifiers survived the reduction")
    if not exist_vars and not universal_vars:
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

    body = core
    if exist_vars:
        anchor = consistency_anchor(core, exist_vars)
        if anchor not in universal_vars:
            # the core reads no universal copy: a fresh one anchors the
            # witnesses, in place of the first unread copy if there is one
            universal_vars = [anchor] + universal_vars[1:]
            tr.record(
                "probe",
                f,
                f,
                f"fresh universal copy {anchor!r} added so witnesses are anchored to branches of the system",
            )
        cons = build_consistency(exist_vars, anchor, doc.inputs, doc.outputs)
        body = And(core, cons)
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

    def to_smtlib(self) -> str:
        lines = ["(set-logic QF_UF)"]
        for c in self.comments:
            lines.append(f"; {c}")
        for v in range(1, self.nvars + 1):
            lines.append(f"(declare-const v{v} Bool)")
        for cl in self.clauses:
            parts = " ".join(f"(not v{-l})" if l < 0 else f"v{l}" for l in cl)
            lines.append(f"(assert (or {parts}))")
        lines.append("(check-sat)")
        lines.append("(get-model)")
        return "\n".join(lines) + "\n"


def _scc_bounds(instance: SynthesisInstance, n: int, m: int) -> list:
    """Sufficient counter bound of each automaton SCC: one step per rejecting
    product node whose automaton state lies in it, n^k * m * |F & C|."""
    m_eff = m if instance.exist_vars else 1
    _, weight = instance.nba.sccs
    return [(n**instance.k) * m_eff * w for w in weight]


def _lambda_bound(instance: SynthesisInstance, n: int, m: int) -> int:
    """Sufficient annotation bound: the largest per-SCC counter bound.

    Every product cycle projects onto a cycle of the automaton, so it stays
    inside one SCC; a counter only has to count the rejecting nodes there.
    """
    return max(_scc_bounds(instance, n, m), default=0)


def encode(
    instance: SynthesisInstance,
    n: int,
    m: int,
    lambda_max: Optional[int] = None,
) -> ConstraintProblem:
    """Constraint system for an n-state system and m-state generator."""
    if n < 1 or m < 1:
        raise SpecError("bounds must be at least 1")
    inputs = instance.inputs
    outputs = instance.outputs
    uvars = list(instance.universal_vars)
    evars = list(instance.exist_vars)
    k = len(uvars)
    upos = {v: i for i, v in enumerate(uvars)}
    has_gen = bool(evars)
    m_eff = m if has_gen else 1

    nba = instance.nba
    Q = nba.n_states
    rejecting = set(nba.accepting)

    in_vals = all_valuations(inputs)
    V = len(in_vals)
    gen_signals = tuple(flatten_atom(a, j) for j in evars for a in tuple(inputs) + tuple(outputs))

    scc_of, _ = nba.sccs
    scc_lam = _scc_bounds(instance, n, m)
    if lambda_max is not None:
        scc_lam = [min(lambda_max, b) for b in scc_lam]
    lam = max(scc_lam, default=0)
    lam_of = [scc_lam[c] if c >= 0 else 0 for c in scc_of]

    nxt = [0]

    def new_var() -> int:
        nxt[0] += 1
        return nxt[0]

    d_var = [[[new_var() for _ in range(n)] for _ in range(V)] for _ in range(n)]
    out_var = [{o: new_var() for o in outputs} for _ in range(n)]
    tau_var = [[new_var() for _ in range(m_eff)] for _ in range(m_eff)] if has_gen else []
    gen_var = [{sig: new_var() for sig in gen_signals} for _ in range(m_eff)] if has_gen else []

    svecs = list(itertools.product(range(n), repeat=k))
    svec_id = {s: i for i, s in enumerate(svecs)}
    n_nodes = len(svecs) * m_eff * Q

    def node_id(svec_i: int, e: int, q: int) -> int:
        return (svec_i * m_eff + e) * Q + q

    r_base = nxt[0]
    nxt[0] += n_nodes

    def r_var(node: int) -> int:
        return r_base + 1 + node

    # counters only for nodes whose automaton state lies in an SCC with a bound
    l_base = nxt[0]
    l_start = []
    for node in range(n_nodes):
        l_start.append(nxt[0] + 1)
        nxt[0] += lam_of[node % Q]
    counter_vars = nxt[0] - l_base

    def l_var(node: int, j: int) -> int:
        # j in 1..lam_of[q], meaning "annotation >= j"
        return l_start[node] + (j - 1)

    clauses: list = []
    add = clauses.append

    # deterministic totality of the system and the generator
    for s in range(n):
        for iv in range(V):
            row = d_var[s][iv]
            add(list(row))
            for a in range(n):
                for b in range(a + 1, n):
                    add([-row[a], -row[b]])
    if has_gen:
        for e in range(m_eff):
            row = [tau_var[e][e2] for e2 in range(m_eff)]
            add(row)
            for a in range(m_eff):
                for b in range(a + 1, m_eff):
                    add([-row[a], -row[b]])

    # annotation order chains
    for node in range(n_nodes):
        for j in range(2, lam_of[node % Q] + 1):
            add([-l_var(node, j), l_var(node, j - 1)])

    # initial nodes: all copies in state 0, generator state 0
    init_svec = svec_id[(0,) * k]
    for q0 in sorted(nba.initial):
        add([r_var(node_id(init_svec, 0, q0))])

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
    # variable and its annotation clauses
    pair_act: dict = {}

    def pair_clauses(node: int, node2: int, q2: int):
        a = pair_act.get((node, node2))
        if a is None:
            a = new_var()
            pair_act[(node, node2)] = a
            rn = r_var(node)
            lam_c = lam_of[q2]
            add([-rn, -a, r_var(node2)])
            if q2 in rejecting:
                if lam_c == 0:
                    add([-rn, -a])
                else:
                    add([-rn, -a, l_var(node2, 1)])
                    for j in range(1, lam_c):
                        add([-rn, -a, -l_var(node, j), l_var(node2, j + 1)])
                    add([-rn, -a, -l_var(node, lam_c)])
            else:
                for j in range(1, lam_c + 1):
                    add([-rn, -a, -l_var(node, j), l_var(node2, j)])
        return a

    input_index = {a: i for i, a in enumerate(inputs)}
    evar_set = set(evars)

    for svec_i, svec in enumerate(svecs):
        for e in range(m_eff):
            for q in range(Q):
                node = node_id(svec_i, e, q)
                for iv_vec in itertools.product(range(V), repeat=k):
                    for g, q2 in nba.edges[q]:
                        # a step that leaves its accepting SCC closes no counted
                        # cycle: reachability only
                        counted = scc_of[q] == scc_of[q2] >= 0 and (
                            lam_of[q2] > 0 or q2 in rejecting
                        )
                        residual = set()
                        feasible = True
                        for sig, val in g:
                            a, var = split_atom(sig)
                            if var in upos:
                                u = upos[var]
                                if a in input_index:
                                    if (a in in_vals[iv_vec[u]]) != val:
                                        feasible = False
                                        break
                                else:
                                    bit = out_var[svec[u]][a]
                                    residual.add(bit if val else -bit)
                            elif var in evar_set:
                                bit = gen_var[e][sig]
                                residual.add(bit if val else -bit)
                            else:
                                raise SpecError(f"atom {sig!r} bound to no copy")
                        if not feasible:
                            continue
                        if any(-x in residual for x in residual):
                            continue
                        ok_lit = conj_lit(frozenset(residual))
                        for svec2 in itertools.product(range(n), repeat=k):
                            d_lits = [
                                d_var[svec[u]][iv_vec[u]][svec2[u]] for u in range(k)
                            ]
                            e2_range = range(m_eff) if has_gen else (0,)
                            for e2 in e2_range:
                                node2 = node_id(svec_id[svec2], e2, q2)
                                ante = [-x for x in d_lits]
                                if has_gen:
                                    ante.append(-tau_var[e][e2])
                                if ok_lit is not None:
                                    ante.append(-ok_lit)
                                if counted:
                                    add(ante + [pair_clauses(node, node2, q2)])
                                else:
                                    add(ante + [-r_var(node), r_var(node2)])

    var_maps = {
        "d": d_var,
        "out": out_var,
        "tau": tau_var,
        "gen": gen_var,
        "gen_signals": gen_signals,
        "l_start": l_start,
        "lam_of": lam_of,
        "counter_vars": counter_vars,
        "m_eff": m_eff,
        "has_gen": has_gen,
    }
    comments = [
        f"bounded synthesis: n={n} m={m} k={k} nba={Q} lambda={lam}",
        f"vars: delta 1..{n*V*n}, outputs, generator, reach at {r_base+1}, "
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
    if vm["has_gen"]:
        m_eff = vm["m_eff"]
        nxt_states = []
        for e in range(m_eff):
            hits = [e2 for e2 in range(m_eff) if true(vm["tau"][e][e2])]
            if len(hits) != 1:
                raise EncoderSoundnessError(f"generator step {e} decoded to {hits}")
            nxt_states.append(hits[0])
        glabels = tuple(
            frozenset(sig for sig in vm["gen_signals"] if true(vm["gen"][e][sig]))
            for e in range(m_eff)
        )
        generator = ExistGenerator(
            tuple(vm["gen_signals"]), glabels, tuple(nxt_states), 0
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

    Raises SolverFailure when the solver runs past `timeout` seconds.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    status, model = solve_clauses(problem.nvars, problem.clauses, deadline)
    if status is None:
        raise SolverFailure(f"solver timed out after {timeout}s")
    stats = {
        "vars": problem.nvars,
        "clauses": len(problem.clauses),
        "lambda": problem.lambda_max,
        "counter_vars": problem.var_maps["counter_vars"],
    }
    if not status:
        return SynthesisResult(
            "unsat", problem.n, problem.m, problem.lambda_max, stats=stats
        )
    system, generator = decode(problem, set(model))
    ok, cex = mc_exists_forall(system, generator, problem.instance.core)
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


QUICK_LAMBDA_SLACK = 2


def solve_at_bounds(
    instance: SynthesisInstance,
    n: int,
    m: int,
    timeout=None,
) -> SynthesisResult:
    """Verdict at one bound point; a small annotation bound is tried first.

    The sufficient bound is the largest per-SCC counter bound (_lambda_bound).
    When the quick bound |F| + QUICK_LAMBDA_SLACK, with |F| the accepting
    states of the instance's cached automaton, lies below it, every SCC's
    counter is first capped at the quick bound. A model found under a smaller
    bound is still a proof, so the quick pass is sound for SAT. Only when it
    comes back UNSAT is the sufficient bound encoded and solved, which makes
    the verdict bound-independent; no caller can cap that second bound, since
    an UNSAT answer under a capped bound would prove nothing.
    """
    quick_bound = len(instance.nba.accepting) + QUICK_LAMBDA_SLACK
    if quick_bound < _lambda_bound(instance, n, m):
        res = solve(encode(instance, n, m, quick_bound), timeout)
        if res.status == "sat":
            return res
    return solve(encode(instance, n, m), timeout)


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
