"""Formula transformations checked structurally and against the evaluator."""

import random

import pytest

from hypersynth.formula import (
    And,
    Knowledge,
    Not,
    PropAtom,
    QuantKind,
    Quantifier,
    Release,
    SpecError,
    TraceAtom,
    TraceForall,
    extract_prefix,
    parse_formula,
    print_formula,
    to_nnf,
    walk,
)
from hypersynth.machines import MooreSystem
from hypersynth.reductions import (
    ReductionTrace,
    build_consistency,
    eliminate_knowledge,
    to_hyperltl,
)
from hypersynth.semantics import (
    LassoTrace,
    TraceSet,
    eval_formula,
    system_traces,
)

from _oracles import K_CONTEXTS, random_child, random_micro_set


def parse(text, signals=("i", "g")):
    return parse_formula(text, set(signals))


def prefix_kinds(f):
    return [(e.kind, e.var) for e in extract_prefix(f)[0]]


# ---------------------------------------------------------------------------
# propositional quantifiers to trace quantifiers

def test_prop_to_trace_basic_shape():
    f = parse("exists q : prop . forall pi : trace . (F q) & G (q -> g[pi])")
    out = to_hyperltl(f, "i")
    kinds = prefix_kinds(out)
    assert kinds[0][0] == QuantKind.TRACE_EXISTS and kinds[0][1].startswith("q")
    assert kinds[1] == (QuantKind.TRACE_FORALL, "pi")
    assert not any(isinstance(g, PropAtom) for g in walk(out))
    # every former q atom now reads the designated input on the fresh trace
    tv = kinds[0][1]
    assert any(
        isinstance(g, TraceAtom) and g.prop == "i" and g.trace_var == tv
        for g in walk(out)
    )


def test_prop_to_trace_forall_becomes_trace_forall():
    f = parse("forall q : prop . forall pi : trace . G (q -> g[pi])")
    out = to_hyperltl(f, "i")
    assert prefix_kinds(out)[0][0] == QuantKind.TRACE_FORALL


def test_prop_to_trace_errors():
    f = parse("exists q : prop . forall pi : trace . G (q -> g[pi])")
    with pytest.raises(SpecError):
        to_hyperltl(f, "")


def test_to_hyperltl_strips_all_prop_quantifiers():
    f = parse(
        "exists q : prop . forall r : prop . forall pi : trace . G ((q & r) -> g[pi])"
    )
    out = to_hyperltl(f, "i")
    assert all(e.kind.is_trace for e in extract_prefix(out)[0])
    g = parse("forall pi : trace . G g[pi]")
    assert to_hyperltl(g, "i") == g


def _random_system(rng):
    n = 2
    labels = tuple(frozenset({"g"}) if rng.random() < 0.5 else frozenset() for _ in range(n))
    delta = tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(n))
    return MooreSystem(("i",), ("g",), labels, delta, 0)


SHAPED = [
    "exists q : prop . forall pi : trace . (F q) & G (q -> g[pi])",
    "exists q : prop . forall pi : trace . (F q) & ((!q) U (g[pi] | q))",
    "exists q : prop . forall pi : trace . G (q -> (q U g[pi]))",
    "forall q : prop . forall pi : trace . (F q) -> F (q & i[pi])",
]


def test_prop_to_trace_preserves_verdicts_on_closed_sets():
    # quantified propositions and traces reading the designated input range over
    # the same bounded sequences, so verdicts must agree on strategy-tree sets
    rng = random.Random(5)
    for _ in range(20):
        M = _random_system(rng)
        T = system_traces(M, 2, 2)
        text = SHAPED[rng.randrange(len(SHAPED))]
        f = parse(text)
        out = to_hyperltl(f, "i")
        assert eval_formula(f, T, prop_bound=2) == eval_formula(out, T, prop_bound=2), text


# ---------------------------------------------------------------------------
# consistency conjunct

def test_consistency_shapes():
    from hypersynth.formula import TRUE, Globally

    assert build_consistency([], "pi", ("i",), ("g",)) == TRUE
    one = build_consistency(["e"], "pi", ("i",), ("g",))
    assert isinstance(one, Release)
    two = build_consistency(["e1", "e2"], "pi", ("i",), ("g",))
    assert isinstance(two, And)
    closed = build_consistency(["e"], "pi", (), ("g",))
    assert isinstance(closed, Globally)


# ---------------------------------------------------------------------------
# knowledge elimination

def test_knowledge_free_unchanged():
    f = to_nnf(parse("forall pi : trace . G g[pi]"))
    assert eliminate_knowledge(f) == f


def test_polarity_comes_from_structure():
    # a knowledge node from an earlier NNF, negated afterwards, is negative
    k = to_nnf(parse_formula("K {a} [pi] a[pi]", {"a", "b"}, trace_vars={"pi"}))
    f = TraceForall("pi", Not(k))
    both = frozenset({"a", "b"})
    T = TraceSet(both, frozenset({LassoTrace(both, (), (both,))}))
    assert eval_formula(f, T, prop_bound=3) is False
    assert eval_formula(eliminate_knowledge(f), T, prop_bound=3) is False
    # an input that is not in NNF eliminates as its NNF does
    for text in ("forall pi : trace . (K {a} [pi] b[pi]) -> a[pi]", "forall pi : trace . !!K {a} [pi] b[pi]"):
        g = parse_formula(text, {"a", "b"})
        want = eliminate_knowledge(to_nnf(g))
        assert eliminate_knowledge(g) == want
        assert print_formula(eliminate_knowledge(g)) == print_formula(want)


def test_positive_elimination_shape():
    f = to_nnf(parse("forall pi : trace . G (K {i} [pi] g[pi])"))
    out = eliminate_knowledge(f)
    assert not any(isinstance(g, Knowledge) for g in walk(out))
    kinds = [e.kind for e in extract_prefix(out)[0]]
    assert kinds == [
        QuantKind.TRACE_FORALL,
        QuantKind.PROP_EXISTS,
        QuantKind.PROP_FORALL,
        QuantKind.TRACE_FORALL,
    ]


def test_negative_elimination_uses_exists_trace():
    f = to_nnf(parse("forall pi : trace . F (!(K {i} [pi] g[pi]))"))
    out = eliminate_knowledge(f)
    assert not any(isinstance(g, Knowledge) for g in walk(out))
    kinds = [e.kind for e in extract_prefix(out)[0]]
    assert kinds[-1] == QuantKind.TRACE_EXISTS


def test_nested_knowledge_fully_eliminated():
    f = to_nnf(parse("forall pi : trace . K {i} [pi] (K {g} [pi] g[pi])"))
    out = eliminate_knowledge(f)
    assert not any(isinstance(g, Knowledge) for g in walk(out))
    # two eliminations, each adding one quantifier block
    assert len(list(extract_prefix(out)[0])) == 1 + 3 + 3


def test_elimination_output_pinned():
    # nested, sibling and negated operators: eliminated in post-order, each
    # adding its block to the prefix and its template to the matrix
    f = to_nnf(parse("forall pi : trace . G ((K {i} [pi] (K {g} [pi] g[pi])) & !(K {i} [pi] F i[pi]))"))
    prefix, matrix = extract_prefix(eliminate_knowledge(f))
    A, E = QuantKind.TRACE_FORALL, QuantKind.TRACE_EXISTS
    PE, PA = QuantKind.PROP_EXISTS, QuantKind.PROP_FORALL
    assert [(e.kind, e.var) for e in prefix] == [
        (A, "pi"),
        (PE, "u__0"), (PA, "r__0"), (A, "pi__0"),
        (PE, "u__1"), (PA, "r__1"), (A, "pi__1"),
        (PE, "u__2"), (PA, "r__2"), (E, "pi__2"),
    ]
    assert print_formula(matrix) == " & ".join([
        "G (u__1 & u__2)",
        "(r__0 U (u__0 & (r__0 & X G !r__0)) & G (r__0 -> (g[pi] <-> g[pi__0]))"
        " -> G (r__0 & X !r__0 -> g[pi__0]))",
        "(r__1 U (u__1 & (r__1 & X G !r__1)) & G (r__1 -> (i[pi] <-> i[pi__1]))"
        " -> G (r__1 & X !r__1 -> u__0))",
        "(r__2 U (u__2 & (r__2 & X G !r__2))"
        " -> G (r__2 -> (i[pi] <-> i[pi__2])) & G (r__2 & X !r__2 -> !F i[pi__2]))",
    ])


@pytest.mark.parametrize("polarity", ["pos", "neg"])
def test_elimination_matches_direct_evaluation(polarity):
    rng = random.Random(17 if polarity == "pos" else 23)
    for _ in range(12):
        agents = rng.choice(["a", "b", "a, b"])
        child = random_child(rng)
        k = f"K {{{agents}}} [pi] ({child})"
        if polarity == "neg":
            k = f"!({k})"
        text = "forall pi : trace . " + rng.choice(K_CONTEXTS).format(k=k)
        f = to_nnf(parse_formula(text, {"a", "b"}))
        out = eliminate_knowledge(f)
        T = random_micro_set(rng)
        want = eval_formula(f, T, prop_bound=3)
        got = eval_formula(out, T, prop_bound=3)
        assert got == want, text


# ---------------------------------------------------------------------------
# reduction audit trail

def test_reduction_trace_renders_steps():
    tr = ReductionTrace()
    f = parse("exists q : prop . forall pi : trace . G (q -> g[pi])")
    g = to_hyperltl(f, "i")
    assert tr.record("to_hyperltl", f, g, "propositional quantifiers replaced") is g
    text = tr.render()
    assert "to_hyperltl" in text and "in :" in text and "out:" in text
