"""Reference evaluator over lasso traces: the oracle everything else is checked against."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hypersynth.formula import parse_formula
from hypersynth.machines import MooreSystem
from hypersynth.semantics import (
    LassoTrace,
    TraceSet,
    eval_bulk,
    eval_formula,
    prop_witnesses,
    replace,
    system_traces,
)

SIG = frozenset({"a", "b"})


def lasso(prefix, loop, signals=SIG):
    mk = lambda xs: tuple(frozenset(v) for v in xs)
    return LassoTrace(frozenset(signals), mk(prefix), mk(loop))


def ts(*traces):
    return TraceSet(traces[0].signals, frozenset(traces))


def ev(text, T, Pi=None, prop_bound=3):
    f = parse_formula(text, set(T.signals), trace_vars=set(Pi or {}))
    return eval_formula(f, T, Pi, prop_bound=prop_bound)


def test_lasso_needs_nonempty_loop():
    with pytest.raises(ValueError):
        LassoTrace(SIG, (), ())


def test_lasso_rejects_foreign_signal():
    with pytest.raises(ValueError):
        LassoTrace(SIG, (frozenset({"z"}),), (frozenset(),))


def test_lasso_positions_wrap():
    t = lasso([["a"]], [["b"], []])
    assert t.at(0) == frozenset({"a"})
    assert t.at(1) == frozenset({"b"})
    assert t.at(2) == frozenset()
    assert t.at(3) == frozenset({"b"})


def test_canonical_shrinks_loop_and_prefix():
    t = lasso([[], ["a"]], [["a"], ["a"]])
    pre, loop = t.key()
    assert loop == (frozenset({"a"}),)
    assert pre == (frozenset(),)


def test_atom_and_boolean_connectives():
    t = lasso([["a"]], [[]])
    T = ts(t)
    assert ev("a[pi]", T, {"pi": t})
    assert not ev("b[pi]", T, {"pi": t})
    assert ev("a[pi] | b[pi]", T, {"pi": t})
    assert not ev("a[pi] & b[pi]", T, {"pi": t})


def test_temporal_operators_on_known_lasso():
    t = lasso([["a"]], [["b"], []])
    T = ts(t)
    Pi = {"pi": t}
    assert ev("X b[pi]", T, Pi)
    assert ev("F b[pi]", T, Pi)
    assert not ev("G b[pi]", T, Pi)
    assert ev("G F b[pi]", T, Pi)
    assert ev("a[pi] U b[pi]", T, Pi)
    assert not ev("b[pi] U a[pi] & b[pi]", T, Pi)
    # weak until with a never-true right side
    assert ev("(!a[pi]) W a[pi]", T, Pi)


def test_trace_quantifiers_range_over_set():
    t1 = lasso([], [["a"]])
    t2 = lasso([], [[]])
    T = ts(t1, t2)
    assert ev("exists pi : trace . G a[pi]", T)
    assert not ev("forall pi : trace . G a[pi]", T)
    assert ev("forall pi : trace . G a[pi] | G !a[pi]", T)


def test_quantifier_under_a_temporal_operator_is_evaluated_pointwise():
    # a holds on t1 from position 1 on and on t2 at even positions, so "every
    # trace has a" fails at 0 and 1 and holds at 2, 4, ...
    t1 = lasso([[]], [["a"]])
    t2 = lasso([], [["a"], []])
    T = ts(t1, t2)
    assert not ev("forall tau : trace . a[tau]", T)
    assert not ev("X (forall tau : trace . a[tau])", T)
    assert ev("X X (forall tau : trace . a[tau])", T)
    assert ev("G F (forall tau : trace . a[tau])", T)
    assert not ev("G (forall tau : trace . a[tau])", T)
    # some trace has a at every position: t2 at 0, t1 from 1 on
    assert ev("G (exists tau : trace . a[tau])", T)
    assert not ev("G (exists tau : trace . !a[tau])", T)


def test_bare_prop_needs_all_traces():
    # an unquantified proposition under a prop quantifier reads uniformly:
    # the witness sequence is shared, so its value is trace-independent
    t1 = lasso([], [["a"]])
    t2 = lasso([], [[]])
    T = ts(t1, t2)
    # q can mirror a only when all traces agree on a; here they do not
    assert ev("exists q : prop . G ((q -> a[pi]) & (a[pi] -> q))", ts(t1), {"pi": t1})
    assert not ev(
        "exists q : prop . forall pi : trace . G ((q -> a[pi]) & (a[pi] -> q))", T
    )


def test_prop_exists_finds_alternation():
    t = lasso([], [["a"], []])
    T = ts(t)
    assert ev("exists q : prop . G (q -> a[pi]) & G F q & G F !q", T, {"pi": t})


def test_prop_forall_is_dual():
    t = lasso([], [["a"]])
    T = ts(t)
    assert not ev("forall q : prop . G q", T)
    assert ev("forall q : prop . F (q | !q)", T)


def test_replacement_alignment_max_prefix_lcm_loop():
    t = lasso([["a"]], [["b"], []])  # prefix 1, loop 2
    tq = LassoTrace(frozenset({"q"}), (frozenset(),) * 2, (frozenset({"q"}),) * 3)
    r = replace(t, "q", tq)
    assert len(r.prefix) == 2
    assert len(r.loop) == 6
    for i in range(12):
        expect = (t.at(i) - {"q"}) | (tq.at(i) & {"q"})
        assert r.at(i) == expect


def test_replacement_cap_enforced():
    t = lasso([], [[]] * 63)
    tq = LassoTrace(frozenset({"q"}), (), (frozenset({"q"}), frozenset()))
    with pytest.raises(ValueError):
        replace(t, "q", tq)


def test_prop_witnesses_dedupe_and_persistence():
    w2 = prop_witnesses("q", 2)
    w3 = prop_witnesses("q", 3)
    keys2 = {t.key() for t in w2}
    keys3 = {t.key() for t in w3}
    assert len(keys2) == len(w2)
    assert keys2 <= keys3  # a witness never disappears when the bound grows


def test_system_traces_shapes():
    M = MooreSystem(("r",), ("g",), (frozenset({"g"}),), ((0, 0),), 0)
    T = system_traces(M, 2, 2)
    assert all("g" in t.at(i) for t in T.traces for i in range(6))
    # every input lasso with prefix <= 2, loop <= 2 appears, deduped by shape
    assert len(T.traces) >= 4


def test_system_traces_follow_delta():
    # two states: grant exactly one step after a request
    M = MooreSystem(
        ("r",), ("g",),
        (frozenset(), frozenset({"g"})),
        ((0, 1), (0, 1)),
        0,
    )
    T = system_traces(M, 3, 2)
    f = parse_formula("G (r[pi] -> X g[pi])", {"r", "g"}, trace_vars={"pi"})
    for t in T.sorted_traces():
        assert eval_formula(f, TraceSet(T.signals, frozenset({t})), {"pi": t})


# ---------------------------------------------------------------------------
# many lassos at once agree with one at a time


@st.composite
def _bodies(draw):
    ops = ["atom", "!", "&", "|", "X", "F", "G", "U", "W", "R"]
    def build(depth):
        op = draw(st.sampled_from(ops if depth > 0 else ["atom"]))
        if op == "atom":
            return draw(st.sampled_from(["a[pi]", "b[pi]", "true"]))
        if op == "!":
            return f"!({build(depth - 1)})"
        if op in ("X", "F", "G"):
            return f"{op} ({build(depth - 1)})"
        return f"({build(depth - 1)}) {op} ({build(depth - 1)})"
    return build(3)


@given(_bodies(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_bulk_matches_scalar(text, data):
    f = parse_formula(text, {"a", "b"}, trace_vars={"pi"})
    pre = data.draw(st.integers(0, 2))
    period = data.draw(st.integers(1, 3))
    n = pre + period
    rows = 8
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    # one row mask per position: bit r is the atom's value on row r
    bits_a = [rng.getrandbits(rows) for _ in range(n)]
    bits_b = [rng.getrandbits(rows) for _ in range(n)]
    out = eval_bulk(f, {("trace", "a", "pi"): bits_a, ("trace", "b", "pi"): bits_b}, pre, period, rows)
    for r in range(rows):
        vals = [
            (frozenset({"a"}) if bits_a[i] >> r & 1 else frozenset())
            | (frozenset({"b"}) if bits_b[i] >> r & 1 else frozenset())
            for i in range(n)
        ]
        t = LassoTrace(SIG, tuple(vals[:pre]), tuple(vals[pre:]))
        want = eval_formula(f, TraceSet(SIG, frozenset({t})), {"pi": t})
        assert (out[0] >> r & 1) == want, f"{text} pre={pre} period={period} row={r}"


def test_eval_bulk_refuses_knowledge_and_quantifiers():
    atoms = {("trace", "a", "pi"): [1]}
    for text in ("X (forall tau : trace . a[tau])", "K {a} [pi] (a[pi])"):
        f = parse_formula(text, {"a"}, trace_vars={"pi"})
        with pytest.raises(TypeError, match="cannot bulk-evaluate"):
            eval_bulk(f, atoms, 0, 1, 1)
