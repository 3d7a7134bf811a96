"""Reference evaluator over lasso traces: the oracle everything else is checked against."""

import pytest

from hypersynth.formula import parse_formula
from hypersynth.machines import MooreSystem
from hypersynth.semantics import (
    LassoTrace,
    TraceSet,
    eval_formula,
    prop_witnesses,
    replace,
    system_traces,
)

# the vectorized oracle's property test lives in _bulk next to the oracle;
# importing it here keeps it collected, as pytest reads only test_*.py files
from _bulk import test_eval_bulk_matches_scalar  # noqa: F401

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
    replace(t, "q", tq, align_cap=63 * 2)


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

