"""Formula-to-formula transformations feeding the synthesis core."""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (
    And,
    Formula,
    Globally,
    Iff,
    Implies,
    Knowledge,
    Next,
    Not,
    PrefixEntry,
    PropAtom,
    QUANT_CLASS,
    Quantifier,
    QuantifierPrefix,
    QuantKind,
    Release,
    SpecError,
    TraceAtom,
    TraceExists,
    TraceForall,
    Until,
    conj,
    disj,
    extract_prefix,
    fresh_name,
    print_formula,
    substitute_trace_var,
    walk,
)


@dataclass(frozen=True)
class ReductionStep:
    name: str
    before: Formula
    after: Formula
    rule: str


@dataclass
class ReductionTrace:
    steps: list[ReductionStep] = field(default_factory=list)

    def record(self, name: str, before: Formula, after: Formula, rule: str) -> Formula:
        self.steps.append(ReductionStep(name, before, after, rule))
        return after

    def render(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(f"== {s.name}: {s.rule}")
            lines.append(f"   in : {print_formula(s.before)}")
            lines.append(f"   out: {print_formula(s.after)}")
        return "\n".join(lines)


def _all_names(f: Formula) -> set[str]:
    names: set[str] = set()
    for g in walk(f):
        if isinstance(g, Quantifier):
            names.add(g.var)
        elif isinstance(g, TraceAtom):
            names.add(g.prop)
            names.add(g.trace_var)
        elif isinstance(g, PropAtom):
            names.add(g.var)
        elif isinstance(g, Knowledge):
            names.add(g.trace_var)
            names |= g.agents
    return names


# ---------------------------------------------------------------------------
# propositional quantifiers to trace quantifiers


def prop_to_trace(f: Formula, J: set[str], designated_input: str) -> Formula:
    """Replace quantified propositions in J by trace quantifiers reading the designated input."""
    if not designated_input:
        raise SpecError("a designated input is required (the input set must be nonempty)")
    quantified = {g.var for g in walk(f) if isinstance(g, Quantifier) and not g.kind.is_trace}
    missing = set(J) - quantified
    if missing:
        raise SpecError(f"not propositionally quantified in the formula: {sorted(missing)}")
    used = _all_names(f)
    mapping: dict[str, str] = {}

    def rec(g: Formula) -> Formula:
        if isinstance(g, Quantifier):
            if not g.kind.is_trace and g.var in J:
                tv = fresh_name(g.var, used)
                mapping[g.var] = tv
                cls = TraceExists if g.kind == QuantKind.PROP_EXISTS else TraceForall
                out = cls(var=tv, child=rec(g.child))
                del mapping[g.var]
                return out
            return QUANT_CLASS[g.kind](var=g.var, child=rec(g.child))
        if isinstance(g, PropAtom) and g.var in mapping:
            return TraceAtom(designated_input, mapping[g.var])
        if isinstance(g, Knowledge):
            return Knowledge(g.agents, g.trace_var, rec(g.child), g.polarity)
        kids = g.children()
        if not kids:
            return g
        if len(kids) == 1:
            return type(g)(rec(kids[0]))
        return type(g)(rec(kids[0]), rec(kids[1]))

    return rec(f)


def to_hyperltl(f: Formula, designated_input: str) -> Formula:
    """Drop all propositional quantifiers via the trace-quantifier replacement; sound for realizability."""
    J = {g.var for g in walk(f) if isinstance(g, Quantifier) and not g.kind.is_trace}
    if not J:
        return f
    return prop_to_trace(f, J, designated_input)


# ---------------------------------------------------------------------------
# collapse of multiple universal trace quantifiers


def collapse(f: Formula) -> Formula:
    """Identify all leading universal trace variables into a single one."""
    prefix, body = extract_prefix(f)
    entries = list(prefix.entries)
    universals: list[str] = []
    idx = 0
    while idx < len(entries) and entries[idx].kind == QuantKind.TRACE_FORALL:
        universals.append(entries[idx].var)
        idx += 1
    rest = entries[idx:]
    if not universals:
        raise SpecError("collapse expects a leading block of universal trace quantifiers")
    for e in rest:
        if e.kind.is_trace:
            raise SpecError("collapse expects only propositional quantifiers after the universal block")
    used = _all_names(f)
    var = "pi" if "pi" not in used else fresh_name("pi", used)
    for old in universals:
        body = substitute_trace_var(body, old, var)
    inner = QuantifierPrefix(tuple(rest)).attach(body)
    return TraceForall(var=var, child=inner)


# ---------------------------------------------------------------------------
# dependency formula


def _agree_until_differ(inputs, outputs, left, right) -> Formula:
    """Outputs agree until inputs differ: Release(i_neq, o_eq), or G o_eq
    without inputs. `left` and `right` map a signal to its atom on each side."""
    o_eq = conj([Iff(left(o), right(o)) for o in outputs])
    if not inputs:
        return Globally(o_eq)
    return Release(disj([Not(Iff(left(i), right(i))) for i in inputs]), o_eq)


def build_dep(A: set[str], C: set[str], var1: str = "pi", var2: str = "pi2") -> Formula:
    """Outputs C depend only on inputs A, phrased over all trace pairs."""
    body = _agree_until_differ(
        sorted(A), sorted(C), lambda s: TraceAtom(s, var1), lambda s: TraceAtom(s, var2)
    )
    return TraceForall(var=var1, child=TraceForall(var=var2, child=body))


# ---------------------------------------------------------------------------
# consistency conjunct: existential witnesses must be strategy-tree branches


def build_consistency(
    existential_vars: list[str],
    universal_var: str,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
) -> Formula:
    return conj([
        _agree_until_differ(
            inputs, outputs, lambda s: TraceAtom(s, ev), lambda s: TraceAtom(s, universal_var)
        )
        for ev in existential_vars
    ])


def consistency_anchor(core: Formula, existential_vars) -> str:
    """The one universal copy that the consistency conjunct names.

    Every universal copy ranges over the same branches of the system, so one
    conjunct is equivalent to one per copy. The choice reads only the core and
    the existential copies, so the encoder and the model checker check one
    formula: the first universal copy that occurs in the core, else a fresh
    probe name.
    """
    names = [g.trace_var for g in walk(core) if isinstance(g, TraceAtom)]
    for v in names:
        if v not in existential_vars:
            return v
    return fresh_name("pi", set(names) | set(existential_vars))


# ---------------------------------------------------------------------------
# knowledge elimination


def _replace_knowledge_node(f: Formula, k: Knowledge, repl: Formula) -> tuple[Formula, bool]:
    """Replace this exact knowledge node (the enclosing Not for negative polarity) by repl."""

    def rec(g: Formula) -> tuple[Formula, bool]:
        if k.polarity == "neg" and isinstance(g, Not) and g.child is k:
            return repl, True
        if g is k:
            # a negative node should be reached through its Not wrapper; guard anyway
            return (repl if k.polarity == "pos" else Not(repl)), True
        if isinstance(g, Quantifier):
            sub, hit = rec(g.child)
            return (QUANT_CLASS[g.kind](var=g.var, child=sub) if hit else g), hit
        if isinstance(g, Knowledge):
            sub, hit = rec(g.child)
            return (Knowledge(g.agents, g.trace_var, sub, g.polarity) if hit else g), hit
        kids = g.children()
        if not kids:
            return g, False
        if len(kids) == 1:
            sub, hit = rec(kids[0])
            return (type(g)(sub) if hit else g), hit
        left, hit = rec(kids[0])
        if hit:
            return type(g)(left, kids[1]), True
        right, hit = rec(kids[1])
        return (type(g)(kids[0], right) if hit else g), hit

    return rec(f)


def _innermost_knowledge(f: Formula) -> Knowledge | None:
    found: Knowledge | None = None
    for g in walk(f):
        if isinstance(g, Knowledge):
            inner = _innermost_knowledge(g.child)
            return inner if inner is not None else g
    return found


def eliminate_knowledge(f: Formula) -> Formula:
    """Replace knowledge operators by quantified bound sequences, innermost first.

    Expects a formula in NNF so every knowledge node carries its polarity tag;
    the output is knowledge-free and prenex whenever the input prefix was prenex.
    """
    current = f
    while True:
        k = _innermost_knowledge(current)
        if k is None:
            return current
        if k.polarity not in ("pos", "neg"):
            raise SpecError("knowledge node without a polarity tag; run to_nnf first")
        current = _eliminate_one(current, k)


def _eliminate_one(f: Formula, k: Knowledge) -> Formula:
    prefix_entries: list[PrefixEntry] = []
    body = f
    while isinstance(body, Quantifier):
        prefix_entries.append(PrefixEntry(body.kind, body.var))
        body = body.child

    used = _all_names(f)
    u = fresh_name("u", used)
    r = fresh_name("r", used)
    pi2 = fresh_name(k.trace_var, used)

    matrix, done = _replace_knowledge_node(body, k, PropAtom(u))
    if not done:
        raise SpecError("knowledge occurrence not found during elimination")

    agree = conj([Iff(TraceAtom(a, k.trace_var), TraceAtom(a, pi2)) for a in sorted(k.agents)])
    pointer = Until(PropAtom(r), And(PropAtom(u), And(PropAtom(r), Next(Globally(Not(PropAtom(r)))))))
    at_pointer = And(PropAtom(r), Next(Not(PropAtom(r))))
    shifted = substitute_trace_var(k.child, k.trace_var, pi2)

    if k.polarity == "pos":
        template: Formula = Implies(
            And(pointer, Globally(Implies(PropAtom(r), agree))),
            Globally(Implies(at_pointer, shifted)),
        )
        quant_block = [
            PrefixEntry(QuantKind.PROP_EXISTS, u),
            PrefixEntry(QuantKind.PROP_FORALL, r),
            PrefixEntry(QuantKind.TRACE_FORALL, pi2),
        ]
    else:
        template = Implies(
            pointer,
            And(
                Globally(Implies(PropAtom(r), agree)),
                Globally(Implies(at_pointer, Not(shifted))),
            ),
        )
        quant_block = [
            PrefixEntry(QuantKind.PROP_EXISTS, u),
            PrefixEntry(QuantKind.PROP_FORALL, r),
            PrefixEntry(QuantKind.TRACE_EXISTS, pi2),
        ]

    new_body = And(matrix, template)
    return QuantifierPrefix(tuple(prefix_entries + quant_block)).attach(new_body)


# ---------------------------------------------------------------------------
# trace quantifiers to propositional quantifiers (no universal traces)


def encode_qptl_no_universal(
    f: Formula, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> Formula:
    """Rewrite an existential-trace formula into pure propositional quantification."""
    prefix, body = extract_prefix(f)
    trace_vars: list[str] = []
    for e in prefix:
        if e.kind == QuantKind.TRACE_FORALL:
            raise SpecError("universal trace quantifier present; only existential traces can be encoded")
        if e.kind == QuantKind.TRACE_EXISTS:
            trace_vars.append(e.var)

    signals = tuple(inputs) + tuple(outputs)
    used = _all_names(f)
    prop_name: dict[tuple[str, str], str] = {}
    for tv in trace_vars:
        for s in signals:
            base = f"{s}_{tv}"
            prop_name[(s, tv)] = base if base not in used else fresh_name(base, used)
            used.add(prop_name[(s, tv)])

    def rewrite(g: Formula) -> Formula:
        if isinstance(g, TraceAtom):
            return PropAtom(prop_name[(g.prop, g.trace_var)])
        kids = g.children()
        if not kids:
            return g
        if isinstance(g, Quantifier):
            raise SpecError("unexpected quantifier inside the body")
        if len(kids) == 1:
            return type(g)(rewrite(kids[0]))
        return type(g)(rewrite(kids[0]), rewrite(kids[1]))

    new_body = rewrite(body)

    pairs = [
        _agree_until_differ(
            inputs,
            outputs,
            lambda s: PropAtom(prop_name[(s, ti)]),
            lambda s: PropAtom(prop_name[(s, tj)]),
        )
        for ti in trace_vars
        for tj in trace_vars
    ]
    full_body = And(new_body, conj(pairs)) if pairs else new_body

    entries: list[PrefixEntry] = []
    for e in prefix:
        if e.kind == QuantKind.TRACE_EXISTS:
            entries += [PrefixEntry(QuantKind.PROP_EXISTS, prop_name[(s, e.var)]) for s in signals]
        else:
            entries.append(e)
    return QuantifierPrefix(tuple(entries)).attach(full_body)
