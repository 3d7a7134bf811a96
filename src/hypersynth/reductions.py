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
    fresh_name,
    map_children,
    print_formula,
    substitute_trace_var,
    to_nnf,
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


def to_hyperltl(f: Formula, designated_input: str) -> Formula:
    """Replace every propositional quantifier by a trace quantifier reading the
    designated input; sound for realizability."""
    if not any(isinstance(g, Quantifier) and not g.kind.is_trace for g in walk(f)):
        return f
    if not designated_input:
        raise SpecError("a designated input is required (the input set must be nonempty)")
    used = _all_names(f)
    mapping: dict[str, str] = {}

    def rec(g: Formula) -> Formula:
        if isinstance(g, Quantifier) and not g.kind.is_trace:
            tv = fresh_name(g.var, used)
            mapping[g.var] = tv
            cls = TraceExists if g.kind == QuantKind.PROP_EXISTS else TraceForall
            out = cls(var=tv, child=rec(g.child))
            del mapping[g.var]
            return out
        if isinstance(g, PropAtom) and g.var in mapping:
            return TraceAtom(designated_input, mapping[g.var])
        return map_children(g, rec)

    return rec(f)


# ---------------------------------------------------------------------------
# consistency conjunct: existential witnesses must be strategy-tree branches


def build_consistency(
    existential_vars: list[str],
    universal_var: str,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
) -> Formula:
    """Each existential copy's outputs agree with the universal copy's until
    their inputs differ: Release(i_neq, o_eq), or G o_eq without inputs."""
    parts = []
    for ev in existential_vars:
        o_eq = conj([Iff(TraceAtom(o, ev), TraceAtom(o, universal_var)) for o in outputs])
        if inputs:
            i_neq = disj([Not(Iff(TraceAtom(i, ev), TraceAtom(i, universal_var))) for i in inputs])
            parts.append(Release(i_neq, o_eq))
        else:
            parts.append(Globally(o_eq))
    return conj(parts)


def consistency_anchor(core: Formula, existential_vars) -> str:
    """The one universal copy that the consistency conjunct names.

    Every universal copy ranges over the same branches of the system, so one
    conjunct is equivalent to one per copy: the first universal copy that
    occurs in the core, else a fresh probe name.
    """
    names = [g.trace_var for g in walk(core) if isinstance(g, TraceAtom)]
    for v in names:
        if v not in existential_vars:
            return v
    return fresh_name("pi", set(names) | set(existential_vars))


def with_consistency(
    core: Formula,
    existential_vars,
    inputs: tuple[str, ...],
    outputs: tuple[str, ...],
) -> Formula:
    """The checked body: the core, and with existential copies also the
    conjunct that makes every witness a branch of the system.

    The encoder and the model checker both check this formula, and both take
    their universal copies from the copies it reads.
    """
    if not existential_vars:
        return core
    anchor = consistency_anchor(core, existential_vars)
    return And(core, build_consistency(existential_vars, anchor, inputs, outputs))


# ---------------------------------------------------------------------------
# knowledge elimination


def eliminate_knowledge(f: Formula) -> Formula:
    """Replace knowledge operators by quantified bound sequences, innermost first.

    The input is brought to NNF, where a knowledge node is negative exactly
    when a Not sits directly above it. One post-order pass turns each operator
    into a fresh proposition u, appends its block (exists u, forall r, then
    forall or exists pi2) to the prefix and conjoins its template to the
    matrix. The output is knowledge-free and prenex whenever the input prefix
    was prenex; a knowledge-free input is returned unchanged.
    """
    if not any(isinstance(g, Knowledge) for g in walk(f)):
        return f
    f = to_nnf(f)
    used = _all_names(f)
    prefix_entries: list[PrefixEntry] = []
    body = f
    while isinstance(body, Quantifier):
        prefix_entries.append(PrefixEntry(body.kind, body.var))
        body = body.child
    templates: list[Formula] = []

    def rec(g: Formula) -> Formula:
        negative = isinstance(g, Not) and isinstance(g.child, Knowledge)
        k = g.child if negative else g
        if not isinstance(k, Knowledge):
            return map_children(g, rec)
        child = rec(k.child)
        u = fresh_name("u", used)
        r = fresh_name("r", used)
        pi2 = fresh_name(k.trace_var, used)

        agree = conj([Iff(TraceAtom(a, k.trace_var), TraceAtom(a, pi2)) for a in sorted(k.agents)])
        pointer = Until(PropAtom(r), And(PropAtom(u), And(PropAtom(r), Next(Globally(Not(PropAtom(r)))))))
        at_pointer = And(PropAtom(r), Next(Not(PropAtom(r))))
        shifted = substitute_trace_var(child, k.trace_var, pi2)

        if negative:
            templates.append(Implies(
                pointer,
                And(
                    Globally(Implies(PropAtom(r), agree)),
                    Globally(Implies(at_pointer, Not(shifted))),
                ),
            ))
        else:
            templates.append(Implies(
                And(pointer, Globally(Implies(PropAtom(r), agree))),
                Globally(Implies(at_pointer, shifted)),
            ))
        prefix_entries.extend([
            PrefixEntry(QuantKind.PROP_EXISTS, u),
            PrefixEntry(QuantKind.PROP_FORALL, r),
            PrefixEntry(QuantKind.TRACE_EXISTS if negative else QuantKind.TRACE_FORALL, pi2),
        ])
        return PropAtom(u)

    matrix = rec(body)
    for t in templates:
        matrix = And(matrix, t)
    return QuantifierPrefix(tuple(prefix_entries)).attach(matrix)
