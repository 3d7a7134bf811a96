"""Parser, printer, normal forms, and prefix handling."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

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
    SpecDocument,
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


def test_comment_in_the_formula_body_is_skipped():
    plain = "inputs: i\noutputs: o\nforall pi : trace .\n  G (o[pi] <->\n  i[pi])\n"
    commented = "inputs: i\noutputs: o\nforall pi : trace . # one copy\n  G (o[pi] <-> # instant\n  i[pi])\n"
    a, b = parse(plain).formula, parse(commented).formula
    assert a == b
    # later tokens keep their positions: the body's nodes were read at the same places
    assert [g.pos for g in walk(a)] == [g.pos for g in walk(b)]
    assert b.child.child.right.pos == (5, 3)


def test_duplicate_signal_rejected():
    with pytest.raises(SpecError, match="declared more than once") as e:
        parse("inputs: r\noutputs: r\nforall pi : trace . r[pi]")
    # reported at the header line that declares it again
    assert e.value.line == 2
    doc = SpecDocument(("r",), ("r",), TraceForall("pi", TraceAtom("r", "pi")))
    assert check_well_formed(doc) == ["signal 'r' declared more than once"]


def test_unbound_trace_var_rejected():
    with pytest.raises(SpecError) as e:
        parse("inputs: r\noutputs: g\ng[pi]")
    assert "pi" in str(e.value)
    # the error points at the start of the atom
    with pytest.raises(SpecError, match="unbound trace variable 'pj'") as e:
        parse("inputs: r\noutputs: g\nforall pi : trace . g[pj]")
    assert (e.value.line, e.value.col) == (3, 21)


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
    # a syntax error is reported before any binding error
    with pytest.raises(SpecError, match="expected") as e:
        parse("inputs: r\noutputs: g\nforall pi : trace . zz[pj] & (g[pi]")
    assert e.value.line == 3


@pytest.mark.parametrize("header", ["inputs: X\noutputs: g", "inputs: r\noutputs: true",
                                    "inputs: r, forall\noutputs: g"])
def test_header_rejects_keyword_names(header):
    # a keyword signal could never be read back in the body
    with pytest.raises(SpecError, match="bad signal name") as e:
        parse(header + "\nforall pi : trace . g[pi]")
    assert e.value.line in (1, 2)


@pytest.mark.parametrize("name", ["X", "r x"])
def test_bad_signal_name_rejected_by_both_checks(name):
    doc = SpecDocument((name,), ("g",), TraceForall("pi", TraceAtom("g", "pi")))
    assert check_well_formed(doc) == [f"bad signal name {name!r}"]
    with pytest.raises(SpecError, match="bad signal name"):
        parse(print_document(doc))


@pytest.mark.parametrize("quantifier", [TraceForall, PropExists])
def test_keyword_variable_rejected_by_both_checks(quantifier):
    # a variable named like an operator prints as text the parser cannot read
    for var in ("X", "U"):
        atom = TraceAtom("g", var) if quantifier is TraceForall else PropAtom(var)
        doc = SpecDocument(("r",), ("g",), quantifier(var=var, child=atom))
        assert check_well_formed(doc) == [f"bad variable name {var!r}"]
        with pytest.raises(SpecError):
            parse(print_document(doc))


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


def test_quantifier_under_an_operator_is_wrapped():
    # a quantifier's body reaches as far right as it can, so as the left
    # operand of even the loosest operator it needs parentheses
    f = Iff(TraceForall("x", TraceAtom("a", "x")), TraceAtom("b", "pi"))
    text = print_formula(f)
    assert text == "(forall x:trace. a[x]) <-> b[pi]"
    assert parse_formula(text, SIG, trace_vars={"pi"}) == f


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


def test_nnf_knowledge_polarity_is_structural():
    k = Knowledge(frozenset({"a"}), "pi", Not(TraceAtom("b", "pi")))
    nnf = lambda text: to_nnf(parse_formula(text, SIG, trace_vars={"pi"}))
    assert nnf("K {a} [pi] !b[pi]") == k
    assert nnf("!(K {a} [pi] !b[pi])") == Not(k)
    assert nnf("!!(K {a} [pi] !b[pi])") == k
    # the body of a negated knowledge node is normalized positively
    assert nnf("!(K {a} [pi] !(a[pi] -> b[pi]))") == Not(
        Knowledge(frozenset({"a"}), "pi", And(TraceAtom("a", "pi"), Not(TraceAtom("b", "pi"))))
    )


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


# drawn prenex documents: check_well_formed accepts exactly those that print
# and parse back to themselves

_SIGNALS = ["a", "b", "c", "d", "e", "f"]
_VARS = ["pi", "pj", "pk", "p", "q", "r"]
_NAMES = _SIGNALS + _VARS + ["x_1", "X", "U", "forall", "true", "prop", "r x", "1a", "", "a-b"]


def _name(pool):
    # mostly a name of the pool; sometimes a keyword, a non-identifier or a
    # name of the other pool
    return st.sampled_from(pool * 10 + _NAMES)


@st.composite
def _documents(draw):
    signals = draw(st.lists(_name(_SIGNALS), max_size=3))
    cut = draw(st.integers(0, len(signals)))
    prefix = draw(st.lists(st.tuples(st.sampled_from([TraceForall, TraceExists, PropForall, PropExists]),
                                     _name(_VARS)), max_size=3))
    traces = [v for q, v in prefix if q in (TraceForall, TraceExists)]
    props = [v for q, v in prefix if q in (PropForall, PropExists)]
    # a well-bound document's atoms name declared signals and variables bound
    # with their sort; the others' atoms may name anything
    well_bound = draw(st.booleans())

    def pick(names):
        return st.sampled_from(names) if well_bound else _name(_SIGNALS + _VARS)

    def can(*names):
        return not well_bound or all(names)

    leaves = [st.sampled_from([BoolConst(True), BoolConst(False)])]
    if can(signals, traces):
        leaves.append(st.builds(TraceAtom, pick(signals), pick(traces)))
    if can(props):
        leaves.append(st.builds(PropAtom, pick(props)))
    leaf = st.one_of(leaves)

    def extend(children):
        ops = [st.builds(lambda op, c: op(c), st.sampled_from([Not, Next, Globally]), children),
               st.builds(lambda op, l, r: op(l, r), st.sampled_from([And, Implies, Until]), children, children)]
        if can(traces):
            agents = st.lists(pick(signals), max_size=2) if can(signals) else st.just([])
            ops.append(st.builds(lambda ags, tv, c: Knowledge(frozenset(ags), tv, c), agents, pick(traces), children))
        return st.one_of(ops)

    f = draw(st.recursive(leaf, extend, max_leaves=4))
    for quantifier, var in reversed(prefix):
        f = quantifier(var=var, child=f)
    return SpecDocument(tuple(signals[:cut]), tuple(signals[cut:]), f)


@given(_documents())
@example(SpecDocument(("a",), ("b",), PropExists("q", TraceForall("pi", Knowledge(frozenset({"a"}), "pi", PropAtom("q"))))))
@example(SpecDocument(("r",), ("g",), TraceForall("X", TraceAtom("g", "X"))))
@settings(max_examples=200, deadline=None)
def test_check_well_formed_agrees_with_round_trip(doc):
    try:
        again = parse(print_document(doc))
    except SpecError:
        again = None
    assert (check_well_formed(doc) == []) == (again == doc)


def test_check_well_formed_flags_non_prenex():
    doc = parse("inputs: r\noutputs: g\nforall pi : trace . G (exists pi2 : trace . g[pi2])")
    issues = check_well_formed(doc)
    assert issues and any("prenex" in m for m in issues)
    # extract_prefix raises the same message, at the inner quantifier
    with pytest.raises(SpecError) as e:
        extract_prefix(doc.formula)
    assert e.value.message in issues and (e.value.line, e.value.col) == (3, 24)


def test_fresh_name_deterministic():
    used = {"b__0", "b__1"}
    assert fresh_name("b", used) == "b__2"
    assert fresh_name("b", set()) == "b__0"


def test_substitute_trace_var():
    f = pf("a[pi] U b[pi2]")
    g = substitute_trace_var(f, "pi", "tau")
    assert g == Until(TraceAtom("a", "tau"), TraceAtom("b", "pi2"))


def test_substitute_trace_var_stops_at_a_shadowing_quantifier():
    # parse refuses a name bound twice, so the tree is built directly
    inner = TraceExists("pi", Knowledge(frozenset({"a"}), "pi", TraceAtom("b", "pi")))
    f = Until(TraceAtom("a", "pi"), inner)
    assert substitute_trace_var(f, "pi", "tau") == Until(TraceAtom("a", "tau"), inner)
    # a proposition quantifier of the same name shadows no trace variable
    p = PropExists("pi", TraceAtom("a", "pi"))
    assert substitute_trace_var(p, "pi", "tau") == PropExists("pi", TraceAtom("a", "tau"))


def test_map_children_keeps_every_other_field():
    k = Knowledge(frozenset({"a"}), "pi", TraceAtom("b", "pi"), pos=(2, 5))
    g = map_children(k, Not)
    assert (g.agents, g.trace_var, g.pos) == (k.agents, "pi", (2, 5))
    assert g.child == Not(TraceAtom("b", "pi"))
    q = TraceExists("pi", Until(TraceAtom("a", "pi"), TraceAtom("b", "pi")), pos=(1, 1))
    r = map_children(q, lambda c: map_children(c, Next))
    assert r == TraceExists("pi", Until(Next(TraceAtom("a", "pi")), Next(TraceAtom("b", "pi"))))
    assert r.kind == QuantKind.TRACE_EXISTS and r.pos == (1, 1)
    assert map_children(TraceAtom("a", "pi"), Not) == TraceAtom("a", "pi")
    # renaming inside a knowledge node keeps its other fields
    s = substitute_trace_var(k, "pi", "tau")
    assert (s.trace_var, s.child) == ("tau", TraceAtom("b", "tau"))


# ---------------------------------------------------------------------------
# hashing: each node computes its hash once


HASHED = "G (a[pi] -> F (b[pi] U !a[pi])) & (K {a} [pi] X c[pi] | exists tau : trace . a[tau] W c[tau])"


def _field_hash(f):
    """What the generated dataclass __hash__ computes over f's compared fields."""
    return hash(tuple(getattr(f, x.name) for x in dataclasses.fields(f) if x.compare))


def test_node_hash_is_cached_field_hash():
    f = parse_formula(HASHED, SIG, trace_vars={"pi"})
    # nothing is hashed at construction
    assert all("_hash" not in vars(g) for g in walk(f))
    h = hash(f)
    for g in walk(f):
        assert "_hash" in vars(g)
        assert hash(g) == _field_hash(g)
    assert hash(f) == h

    a, b, c = (TraceAtom(x, "pi") for x in "abc")
    built = And(
        Globally(Implies(a, Eventually(Until(b, Not(a))))),
        Or(
            Knowledge(frozenset({"a"}), "pi", Next(c)),
            TraceExists("tau", WeakUntil(TraceAtom("a", "tau"), TraceAtom("c", "tau"))),
        ),
    )
    assert built == f and hash(built) == h

    # the source position takes no part in equality or hashing
    moved = dataclasses.replace(f, pos=(7, 7))
    assert moved.pos != f.pos and moved == f and hash(moved) == h

    # a replaced child gives a node whose hash is taken afresh
    swapped = dataclasses.replace(f, left=Globally(a))
    assert "_hash" not in vars(swapped)
    assert hash(swapped) == _field_hash(swapped) != h


def test_pickled_node_carries_no_cached_hash():
    # string hashes are salted per process, so a pickled cache would be stale
    # in the process that loads it
    fresh = parse_formula(HASHED, SIG, trace_vars={"pi"})
    hashed = parse_formula(HASHED, SIG, trace_vars={"pi"})
    hash(hashed)
    data = pickle.dumps(hashed)
    assert data == pickle.dumps(fresh)
    back = pickle.loads(data)
    assert all("_hash" not in vars(g) for g in walk(back))
    assert back == hashed and hash(back) == _field_hash(back) == hash(hashed)
