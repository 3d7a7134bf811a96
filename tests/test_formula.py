"""Parser, printer, normal forms, and prefix handling."""

import pytest
from hypothesis import given, settings, strategies as st

from hypersynth.formula import (
    And,
    BoolConst,
    Eventually,
    Globally,
    Iff,
    Implies,
    Knowledge,
    Next,
    Not,
    Or,
    PropAtom,
    PropExists,
    PropForall,
    QuantKind,
    Release,
    SpecError,
    TraceAtom,
    TraceExists,
    TraceForall,
    Until,
    WeakUntil,
    check_well_formed,
    extract_prefix,
    fresh_name,
    map_children,
    parse,
    parse_formula,
    print_document,
    print_formula,
    substitute_trace_var,
    to_nnf,
    walk,
)

SIG = {"a", "b", "c"}


def pf(text):
    return parse_formula(text, SIG, trace_vars={"pi", "pi2"}, prop_vars={"q"})


def test_parse_atom_forms():
    assert pf("a[pi]") == TraceAtom("a", "pi")
    assert pf("q") == PropAtom("q")
    assert pf("true") == BoolConst(True)
    assert pf("false") == BoolConst(False)


def test_precedence_and_binds_tighter_than_or():
    assert pf("a[pi] | b[pi] & c[pi]") == Or(
        TraceAtom("a", "pi"), And(TraceAtom("b", "pi"), TraceAtom("c", "pi"))
    )


def test_precedence_until_over_boolean():
    # a U b & c reads as (a U b) & c: until binds tighter than &
    assert pf("a[pi] U b[pi] & c[pi]") == And(
        Until(TraceAtom("a", "pi"), TraceAtom("b", "pi")), TraceAtom("c", "pi")
    )


def test_until_right_associative():
    assert pf("a[pi] U b[pi] U c[pi]") == Until(
        TraceAtom("a", "pi"), Until(TraceAtom("b", "pi"), TraceAtom("c", "pi"))
    )


def test_implies_right_associative():
    f = pf("a[pi] -> b[pi] -> c[pi]")
    assert f == Implies(TraceAtom("a", "pi"), Implies(TraceAtom("b", "pi"), TraceAtom("c", "pi")))


def test_unary_chain():
    assert pf("! X F a[pi]") == Not(Next(Eventually(TraceAtom("a", "pi"))))


def test_parse_document_headers():
    doc = parse("inputs: i1, i2\noutputs: o\nforall pi : trace . o[pi]")
    assert doc.inputs == ("i1", "i2")
    assert doc.outputs == ("o",)
    assert doc.formula == TraceForall(var="pi", child=TraceAtom("o", "pi"))


def test_parse_document_comments_and_blank_lines():
    doc = parse("# arbiter\ninputs: r\n\noutputs: g  # grants\nforall pi : trace . g[pi]")
    assert doc.inputs == ("r",)
    assert doc.outputs == ("g",)


def test_duplicate_signal_rejected():
    with pytest.raises(SpecError):
        parse("inputs: r\noutputs: r\nforall pi : trace . r[pi]")


def test_unbound_trace_var_rejected():
    with pytest.raises(SpecError) as e:
        parse("inputs: r\noutputs: g\ng[pi]")
    assert "pi" in str(e.value)


def test_duplicate_quantifier_var_rejected():
    with pytest.raises(SpecError):
        parse("inputs: r\noutputs: g\nforall pi : trace . exists pi : trace . g[pi]")


def test_quantified_prop_shadows_nothing():
    with pytest.raises(SpecError):
        parse("inputs: r\noutputs: g\nexists g : prop . forall pi : trace . g")


def test_error_carries_position():
    with pytest.raises(SpecError) as e:
        parse("inputs: r\noutputs: g\nforall pi : trace . (g[pi]")
    assert e.value.line == 3


def test_knowledge_syntax():
    f = parse_formula("K {a, b} [pi] c[pi]", SIG, trace_vars={"pi"})
    assert f == Knowledge(frozenset({"a", "b"}), "pi", TraceAtom("c", "pi"))


def test_print_parse_round_trip_document():
    text = "inputs: r\noutputs: g\nexists q : prop . forall pi : trace . G (r[pi] -> F (g[pi] & q))"
    doc = parse(text)
    again = parse(print_document(doc))
    assert again == doc


# a pool of closed formulas exercising every operator
CLOSED = [
    "forall pi : trace . a[pi] W b[pi]",
    "forall pi : trace . a[pi] R (b[pi] U c[pi])",
    "exists pi : trace . (a[pi] <-> b[pi]) -> c[pi]",
    "forall q : prop . forall pi : trace . G (q | !a[pi])",
    "exists pi : trace . forall pi2 : trace . G (a[pi] <-> a[pi2])",
    "forall pi : trace . K {a} [pi] F b[pi]",
]


@pytest.mark.parametrize("text", CLOSED)
def test_round_trip_closed(text):
    f = parse_formula(text, SIG)
    assert parse_formula(print_formula(f), SIG) == f


# random AST round trip: print then parse is the identity


def _formulas(depth):
    leaf = st.one_of(
        st.sampled_from([TraceAtom("a", "pi"), TraceAtom("b", "pi"), PropAtom("q"),
                         BoolConst(True), BoolConst(False)])
    )
    unary = [Not, Next, Eventually, Globally]
    binary = [And, Or, Implies, Iff, Until, WeakUntil, Release]

    def extend(children):
        u = st.builds(lambda op, c: op(c), st.sampled_from(unary), children)
        b = st.builds(lambda op, l, r: op(l, r), st.sampled_from(binary), children, children)
        return st.one_of(u, b)

    return st.recursive(leaf, extend, max_leaves=depth)


@given(_formulas(8))
@settings(max_examples=300, deadline=None)
def test_round_trip_random(f):
    body = TraceForall(var="pi", child=PropExists(var="q", child=f))
    assert parse_formula(print_formula(body), SIG) == body


def test_nnf_pushes_negation():
    f = pf("!(a[pi] U (b[pi] & c[pi]))")
    g = to_nnf(f)
    for node in walk(g):
        if isinstance(node, Not):
            assert isinstance(node.child, (TraceAtom, PropAtom))


def test_nnf_expands_implication():
    assert to_nnf(pf("a[pi] -> b[pi]")) == Or(Not(TraceAtom("a", "pi")), TraceAtom("b", "pi"))


def test_nnf_dualizes_quantifiers():
    f = parse_formula("!(forall pi : trace . a[pi])", SIG)
    g = to_nnf(f)
    assert isinstance(g, TraceExists)
    assert g.child == Not(TraceAtom("a", "pi"))


def test_nnf_until_release_duality():
    assert to_nnf(pf("!(a[pi] U b[pi])")) == Release(
        Not(TraceAtom("a", "pi")), Not(TraceAtom("b", "pi"))
    )
    assert to_nnf(pf("!(a[pi] R b[pi])")) == Until(
        Not(TraceAtom("a", "pi")), Not(TraceAtom("b", "pi"))
    )


def test_nnf_tags_knowledge_polarity():
    pos = to_nnf(parse_formula("K {a} [pi] b[pi]", SIG, trace_vars={"pi"}))
    assert isinstance(pos, Knowledge) and pos.polarity == "pos"
    neg = to_nnf(parse_formula("!(K {a} [pi] b[pi])", SIG, trace_vars={"pi"}))
    assert isinstance(neg, Not) and neg.child.polarity == "neg"


@given(_formulas(8))
@settings(max_examples=200, deadline=None)
def test_nnf_idempotent(f):
    g = to_nnf(f)
    assert to_nnf(g) == g


def test_extract_prefix_orders_entries():
    f = parse_formula(
        "exists q : prop . forall pi : trace . exists r : prop . a[pi]", SIG
    )
    prefix, body = extract_prefix(f)
    assert [(e.kind, e.var) for e in prefix] == [
        (QuantKind.PROP_EXISTS, "q"),
        (QuantKind.TRACE_FORALL, "pi"),
        (QuantKind.PROP_EXISTS, "r"),
    ]
    assert body == TraceAtom("a", "pi")
    assert prefix.attach(body) == f


def test_check_well_formed_accepts_document():
    doc = parse("inputs: r\noutputs: g\nforall pi : trace . g[pi]")
    assert check_well_formed(doc) == []


def test_check_well_formed_flags_non_prenex():
    doc = parse("inputs: r\noutputs: g\nforall pi : trace . G (exists pi2 : trace . g[pi2])")
    issues = check_well_formed(doc)
    assert issues and any("prenex" in m for m in issues)


def test_fresh_name_deterministic():
    used = {"b__0", "b__1"}
    assert fresh_name("b", used) == "b__2"
    assert fresh_name("b", set()) == "b__0"


def test_substitute_trace_var():
    f = pf("a[pi] U b[pi2]")
    g = substitute_trace_var(f, "pi", "tau")
    assert g == Until(TraceAtom("a", "tau"), TraceAtom("b", "pi2"))


def test_map_children_keeps_every_other_field():
    k = Knowledge(frozenset({"a"}), "pi", TraceAtom("b", "pi"), "neg", pos=(2, 5))
    g = map_children(k, Not)
    assert (g.agents, g.trace_var, g.polarity, g.pos) == (k.agents, "pi", "neg", (2, 5))
    assert g.child == Not(TraceAtom("b", "pi"))
    q = TraceExists("pi", Until(TraceAtom("a", "pi"), TraceAtom("b", "pi")), pos=(1, 1))
    r = map_children(q, lambda c: map_children(c, Next))
    assert r == TraceExists("pi", Until(Next(TraceAtom("a", "pi")), Next(TraceAtom("b", "pi"))))
    assert r.kind == QuantKind.TRACE_EXISTS and r.pos == (1, 1)
    assert map_children(TraceAtom("a", "pi"), Not) == TraceAtom("a", "pi")
    # renaming inside a knowledge node keeps its polarity tag
    s = substitute_trace_var(k, "pi", "tau")
    assert (s.trace_var, s.polarity, s.child) == ("tau", "neg", TraceAtom("b", "tau"))
