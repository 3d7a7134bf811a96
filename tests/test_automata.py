"""Tableau-built Buchi automata checked against the reference evaluator."""

import pickle
import random
import signal

import pytest

from hypersynth.automata import (
    NBA,
    accepting_sccs,
    flatten,
    flatten_atom,
    ltl_to_nba,
    merge_guards,
    simplify_nba,
    split_atom,
    tarjan_sccs,
)
from hypersynth.bench import TABLE_INSTANCES
from hypersynth.formula import Knowledge, Not, SpecError, TraceAtom, TraceForall, parse, parse_formula
from hypersynth.mc import accepts_lasso
from hypersynth.semantics import LassoTrace, TraceSet, eval_formula
from hypersynth.synth import prepare

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


def test_flatten_rejects_knowledge():
    with pytest.raises(SpecError, match="knowledge"):
        flatten(Knowledge(frozenset({"a"}), "pi", TraceAtom("b", "pi")))


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


def test_loop_acceptance_phase_zero():
    # on the loop (a, !a) entered at its first letter, the G a automaton
    # rejects while the GF a automaton accepts
    hold = ltl_to_nba(body("G a[pi]"))
    vals = [frozenset({"a@pi"}), frozenset()]
    assert not accepts_lasso(hold, [], vals)
    inf = ltl_to_nba(body("G (F a[pi])"))
    assert accepts_lasso(inf, [], vals)


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


# a body whose automaton never finished while every product of branches was
# kept (about 1,000 branches per tableau state); its spec negates it
FOUND_SPEC = """inputs: s, p
outputs: q
forall pi : trace .
  !(((X F s[pi]) R (F !s[pi]) <-> F ((G s[pi]) W (s[pi] -> true))) R (F F X q[pi])
    W (!G s[pi]) W (F s[pi] -> (p[pi] <-> q[pi])))
"""


def test_dominated_branches_are_dropped_so_large_bodies_build():
    def expire(*_):
        raise TimeoutError("the automaton took more than 20 s")

    inst = prepare(parse(FOUND_SPEC))
    ltl_to_nba.cache_clear()
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        nba = inst.nba
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # the pruned automaton still decides membership as the evaluator does
    sig = frozenset({"s", "p", "q"})
    rng = random.Random(19)
    pick = lambda: frozenset(x for x in sorted(sig) if rng.random() < 0.5)
    ren = lambda v: frozenset(f"{x}@pi" for x in v)
    for _ in range(40):
        t = LassoTrace(sig, tuple(pick() for _ in range(rng.randrange(3))),
                       tuple(pick() for _ in range(rng.randrange(1, 4))))
        want = eval_formula(Not(inst.body), TraceSet(sig, frozenset({t})), {"pi": t})
        assert accepts_lasso(nba, [ren(v) for v in t.prefix], [ren(v) for v in t.loop]) == want


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


def test_simplify_trims_to_reached_live_states():
    # distinct guards, so that no two kept states are bisimilar
    lit = lambda i: frozenset({(f"e{i}", True)})
    # 2 -> 0 -> 1 (accepting self-loop): 0 is on no cycle and lives through 1;
    # 3 accepts on no cycle and reaches only the cycle 4 <-> 5, as does 6;
    # the accepting cycle 7 <-> 8 is unreachable
    edges = [(2, 0), (0, 1), (1, 1), (3, 4), (4, 5), (5, 4), (6, 4), (7, 8), (8, 7)]
    trans = tuple((s, lit(i), d) for i, (s, d) in enumerate(edges))

    def trimmed(accepting):
        slim = simplify_nba(NBA(9, frozenset([2, 3, 6]), frozenset(accepting), trans))
        return slim.n_states, len(slim.initial), len(slim.accepting), len(slim.transitions)

    assert trimmed({1, 3, 8}) == (3, 1, 1, 3)
    # once the cycle 4 <-> 5 accepts, 3 and 6 live through it
    assert trimmed({1, 3, 5, 8}) == (7, 3, 3, 7)
    # with no reached accepting cycle the language is empty
    empty = simplify_nba(NBA(9, frozenset([3, 6]), frozenset({3, 8}), trans))
    assert (empty.n_states, empty.accepting, empty.transitions) == (1, frozenset(), ())


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


def test_nba_hash_is_cached_and_not_pickled():
    nba = ltl_to_nba(body("G (a[pi] -> F b[pi])"))
    h = hash(nba)
    assert h == hash((nba.n_states, nba.initial, nba.accepting, nba.transitions))
    assert vars(nba)["_hash"] == h
    back = pickle.loads(pickle.dumps(nba))
    assert "_hash" not in vars(back)
    assert back == nba and hash(back) == h


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
    # from given roots only what they reach is visited
    assert sorted(sorted(c) for c in tarjan_sccs(5, succ, roots=[3])) == [[0, 1, 2], [3]]


def test_accepting_sccs():
    # 0 -> 1 -> 1 (accepting self-loop); 2 -> 0; 3 accepting on no cycle -> 4 <-> 5;
    # 6 reaches only the non-accepting cycle 4 <-> 5
    succ = {0: [1], 1: [1], 2: [0], 3: [4], 4: [5], 5: [4], 6: [4]}
    assert accepting_sccs(7, succ, {1, 3}) == [{1}]
    # the non-accepting cycle 4 <-> 5 is found once one of its nodes accepts
    sccs = accepting_sccs(7, succ, {1, 5})
    assert {4, 5} in sccs and {1} in sccs
    assert accepting_sccs(7, succ, set()) == []


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


def test_reads_hold_each_guard_and_are_closed_forward():
    t = frozenset()
    a, b = frozenset({("a", True)}), frozenset({("b", False)})
    # 0 -a-> 1 <-b-> 2 -t-> 3 -t-> 3: 1 and 2 share one SCC and its reads
    nba = NBA(4, frozenset([0]), frozenset([3]), ((0, a, 1), (1, b, 2), (2, t, 1), (2, t, 3), (3, t, 3)))
    assert nba.reads == (frozenset({"a", "b"}), frozenset({"b"}), frozenset({"b"}), frozenset())
    for bi in TABLE_INSTANCES:
        nba = prepare(bi.doc).nba
        assert len(nba.reads) == nba.n_states
        for q, g, d in nba.transitions:
            assert {sig for sig, _ in g} <= nba.reads[q]
            assert nba.reads[d] <= nba.reads[q]
        # some state reads less than the initial one
        assert min(map(len, nba.reads)) < len(nba.reads[min(nba.initial)])
