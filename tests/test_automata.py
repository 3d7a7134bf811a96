"""Tableau-built Buchi automata checked against the reference evaluator."""

import random

import pytest

from hypersynth.automata import (
    NBA,
    accepting_sccs,
    accepts_lasso,
    flatten,
    flatten_atom,
    guard_satisfied,
    live_states,
    loop_acceptance_states,
    ltl_to_nba,
    merge_guards,
    run_prefix,
    simplify_nba,
    split_atom,
    tarjan_sccs,
)
from hypersynth.formula import SpecError, TraceForall, parse_formula
from hypersynth.semantics import LassoTrace, TraceSet, eval_formula

SIG = frozenset({"a", "b"})


def body(text):
    return parse_formula(text, set(SIG), trace_vars={"pi"})


def lasso(prefix, loop):
    mk = lambda xs: tuple(frozenset(v) for v in xs)
    return LassoTrace(SIG, mk(prefix), mk(loop))


def as_word(t):
    # rename positions into the flattened signal space of the automaton
    ren = lambda v: frozenset(f"{x}@pi" for x in v)
    return [ren(v) for v in t.prefix], [ren(v) for v in t.loop]


def oracle(text, t):
    T = TraceSet(SIG, frozenset({t}))
    return eval_formula(body(text), T, {"pi": t})


def member(text, t):
    pre, loop = as_word(t)
    return accepts_lasso(ltl_to_nba(body(text)), pre, loop)


# ---------------------------------------------------------------------------
# guards

def test_guard_satisfied():
    g = frozenset({("a", True), ("b", False)})
    assert guard_satisfied(g, frozenset({"a"}))
    assert not guard_satisfied(g, frozenset({"a", "b"}))
    assert not guard_satisfied(g, frozenset())
    assert guard_satisfied(frozenset(), frozenset({"a"}))


def test_merge_guards():
    g1 = frozenset({("a", True)})
    g2 = frozenset({("b", False)})
    assert merge_guards(g1, g2) == g1 | g2
    assert merge_guards(g1, frozenset({("a", False)})) is None
    assert merge_guards(frozenset(), frozenset()) == frozenset()


# ---------------------------------------------------------------------------
# flattening

def test_flatten_renames_trace_atoms():
    f = flatten(body("a[pi] U b[pi]"))
    from hypersynth.formula import print_formula

    assert print_formula(f) == "a@pi U b@pi"


def test_flatten_rejects_quantifier():
    f = TraceForall("pi", body("a[pi]"))
    with pytest.raises(SpecError):
        flatten(f)


def test_split_atom_inverts_flatten_atom():
    assert split_atom(flatten_atom("g", "pi")) == ("g", "pi")
    with pytest.raises(SpecError):
        split_atom("g")


# ---------------------------------------------------------------------------
# acceptance on hand-picked words

CANON = [
    ("G a[pi]", [], [["a"]], True),
    ("G a[pi]", [["a"]], [["a", "b"]], True),
    ("G a[pi]", [[]], [["a"]], False),
    ("G a[pi]", [["a"]], [["a"], []], False),
    ("F b[pi]", [], [[]], False),
    ("F b[pi]", [["b"]], [[]], True),
    ("F b[pi]", [], [["a"], ["b"]], True),
    ("a[pi] U b[pi]", [], [["b"]], True),
    ("a[pi] U b[pi]", [["a"], ["a"]], [["b"]], True),
    ("a[pi] U b[pi]", [], [["a"]], False),
    ("X a[pi]", [[]], [["a"]], True),
    ("X a[pi]", [["a"]], [[]], False),
    ("a[pi] W b[pi]", [], [["a"]], True),
    ("a[pi] W b[pi]", [], [[]], False),
    ("a[pi] W b[pi]", [["a"], []], [["b"]], False),
    ("a[pi] R b[pi]", [], [["b"]], True),
    ("a[pi] R b[pi]", [], [["a", "b"], []], True),
    ("a[pi] R b[pi]", [], [["a"], ["b"]], False),
    ("G (F a[pi])", [], [["a"], []], True),
    ("G (F a[pi])", [["a"]], [[]], False),
    ("F (G b[pi])", [[], []], [["b"]], True),
    ("F (G b[pi])", [], [["b"], []], False),
    ("!(a[pi])", [[]], [["a"]], True),
    ("!(a[pi])", [["a"]], [[]], False),
    ("a[pi] -> b[pi]", [["a", "b"]], [[]], True),
    ("a[pi] -> b[pi]", [["a"]], [[]], False),
    ("true", [], [[]], True),
    ("false", [], [["a", "b"]], False),
]


@pytest.mark.parametrize("text,prefix,loop,expected", CANON)
def test_canonical_memberships(text, prefix, loop, expected):
    t = lasso(prefix, loop)
    assert member(text, t) == expected
    assert oracle(text, t) == expected


def test_lasso_needs_loop():
    nba = ltl_to_nba(body("true"))
    with pytest.raises(AssertionError):
        accepts_lasso(nba, [], [])


def test_run_prefix_empty_is_initial():
    nba = ltl_to_nba(body("G a[pi]"))
    assert run_prefix(nba, [], set(nba.initial)) == set(nba.initial)


def test_loop_acceptance_phase_zero():
    # on the loop (a, !a) the G a automaton accepts from nowhere,
    # while GF a accepts from every live state
    hold = ltl_to_nba(body("G a[pi]"))
    vals = [frozenset({"a@pi"}), frozenset()]
    assert loop_acceptance_states(hold, vals) == set()
    inf = ltl_to_nba(body("G (F a[pi])"))
    assert loop_acceptance_states(inf, vals) >= set(inf.initial)


# ---------------------------------------------------------------------------
# randomized differential against the evaluator

def _random_body(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a[pi]", "b[pi]", "true", "false"])
    op = rng.choice(["!", "X", "F", "G", "&", "|", "->", "U", "W", "R"])
    if op in ("!", "X", "F", "G"):
        return f"{op}({_random_body(rng, depth - 1)})"
    return f"({_random_body(rng, depth - 1)}) {op} ({_random_body(rng, depth - 1)})"


def _random_lasso(rng):
    pick = lambda: frozenset(x for x in ("a", "b") if rng.random() < 0.5)
    pre = [pick() for _ in range(rng.randrange(3))]
    loop = [pick() for _ in range(1, rng.randrange(1, 4) + 1)][: rng.randrange(1, 4)]
    return LassoTrace(SIG, tuple(pre), tuple(loop) or (frozenset(),))


def test_membership_matches_evaluator_randomized():
    rng = random.Random(2024)
    for _ in range(120):
        text = _random_body(rng, 3)
        f = body(text)
        nba = ltl_to_nba(f)
        for _ in range(6):
            t = _random_lasso(rng)
            pre, loop = as_word(t)
            got = accepts_lasso(nba, pre, loop)
            want = eval_formula(f, TraceSet(SIG, frozenset({t})), {"pi": t})
            assert got == want, (text, t.prefix, t.loop)


# ---------------------------------------------------------------------------
# simplification

def test_simplify_drops_unreachable_and_dead():
    t = frozenset()
    raw = NBA(
        4,
        frozenset([0]),
        frozenset([1]),
        ((0, t, 1), (1, t, 1), (2, t, 1), (1, t, 3)),
    )
    slim = simplify_nba(raw)
    assert slim.n_states == 2
    for word in ([], [frozenset({"a"})]):
        assert accepts_lasso(raw, word, [t and frozenset() or frozenset()]) == accepts_lasso(
            slim, word, [frozenset()]
        )


def test_simplify_subsumes_weaker_edges():
    t = frozenset()
    strong = frozenset({("a", True)})
    raw = NBA(2, frozenset([0]), frozenset([1]), ((0, t, 1), (0, strong, 1), (1, t, 1)))
    slim = simplify_nba(raw)
    assert all(g == t for _, g, _ in slim.transitions)


def test_simplify_merges_bisimilar_states():
    t = frozenset()
    # two interchangeable accepting sinks
    raw = NBA(3, frozenset([0]), frozenset([1, 2]), ((0, t, 1), (0, t, 2), (1, t, 1), (2, t, 2)))
    slim = simplify_nba(raw)
    assert slim.n_states == 2


def test_simplify_idempotent_and_deterministic():
    for text in ["G a[pi]", "G (F a[pi])", "a[pi] U (b[pi] R a[pi])", "F (a[pi] & X b[pi])"]:
        nba = ltl_to_nba(body(text))
        again = simplify_nba(nba)
        assert again == nba
        # an equal formula hits the memo, so rebuild from an empty one
        ltl_to_nba.cache_clear()
        fresh = ltl_to_nba(body(text))
        assert fresh is not nba and fresh == nba


def test_equal_formulas_share_one_automaton():
    ltl_to_nba.cache_clear()
    nba = ltl_to_nba(body("G (F a[pi])"))
    assert ltl_to_nba(body("G (F a[pi])")) is nba
    assert ltl_to_nba.cache_info().misses == 1


def test_empty_language_nba():
    nba = ltl_to_nba(body("false"))
    assert nba.accepting == frozenset()
    assert not accepts_lasso(nba, [], [frozenset()])


# ---------------------------------------------------------------------------
# structure checks

def test_nba_validates_state_indices():
    with pytest.raises(AssertionError):
        NBA(1, frozenset([0]), frozenset([5]), tuple())
    with pytest.raises(AssertionError):
        NBA(1, frozenset(), frozenset(), tuple())


def test_tarjan_reverse_topological():
    succ = {0: [1], 1: [2], 2: [0], 3: [0], 4: []}
    sccs = tarjan_sccs(5, succ)
    comps = [sorted(c) for c in sccs]
    assert [0, 1, 2] in comps
    assert [3] in comps and [4] in comps
    # the cycle is a successor of 3, so it must settle first
    assert comps.index([0, 1, 2]) < comps.index([3])


def test_accepting_sccs_and_live_states():
    # 0 -> 1 -> 1 (accepting self-loop); 2 -> 0; 3 accepting on no cycle -> 4 <-> 5;
    # 6 reaches only the non-accepting cycle 4 <-> 5
    succ = {0: [1], 1: [1], 2: [0], 3: [4], 4: [5], 5: [4], 6: [4]}
    sccs = accepting_sccs(7, succ, {1, 3})
    assert sccs == [{1}]
    assert live_states(7, succ, sccs) == {0, 1, 2}
    # the non-accepting cycle 4 <-> 5 is found once one of its nodes accepts
    sccs = accepting_sccs(7, succ, {1, 5})
    assert {4, 5} in sccs and {1} in sccs
    assert live_states(7, succ, sccs) == set(range(7))
    assert accepting_sccs(7, succ, set()) == []
    assert live_states(7, succ, []) == set()


def test_accepting_sccs_reverse_topological():
    # the accepting cycle {2, 3} is reachable from the accepting self-loop 0
    succ = {0: [0, 1], 1: [2], 2: [3], 3: [2]}
    assert accepting_sccs(4, succ, {0, 2}) == [{2, 3}, {0}]


def test_nba_edges_and_sccs():
    # states: 0 initial; 1 accepting with a self-loop; 2 accepting on no cycle
    t = frozenset()
    a = frozenset({("a", True)})
    nba = NBA(4, frozenset([0]), frozenset([1, 2]),
              ((0, a, 1), (1, t, 1), (0, t, 2), (2, t, 3), (3, t, 3)))
    assert nba.edges == (((a, 1), (t, 2)), ((t, 1),), ((t, 3),), ((t, 3),))
    scc_of, weight = nba.sccs
    assert scc_of == (-1, 0, -1, -1) and weight == (1,)
