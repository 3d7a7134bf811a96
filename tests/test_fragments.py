"""Prefix classification and information forks."""

import random

import pytest

from hypersynth.formula import SpecError, parse_formula
from hypersynth.fragments import (
    ALL_VERDICTS,
    Architecture,
    FragmentVerdict,
    LINEAR_CANDIDATE,
    NO_UNIVERSAL,
    OUTSIDE,
    SINGLE_UNIVERSAL,
    UNDEC_FORALL_EXISTS,
    UNDEC_NONLINEAR,
    UNDEC_PROP_ALTERNATION,
    classify,
    classify_formula,
    has_info_fork,
    parse_architecture,
    render_architecture,
)
from hypersynth.formula import extract_prefix

from _oracles import CHAINED, FORKED, brute_fork, feeds, random_architecture, rooted


def pfx(text):
    f = parse_formula(text, {"a"})
    return extract_prefix(f)[0]


# ---------------------------------------------------------------------------
# the prefix catalog, one pattern per region of the decidability landscape

CATALOG = [
    # the promptness-arbiter prefix: exists q then one universal trace
    ("exists q : prop . forall pi : trace . true", SINGLE_UNIVERSAL),
    ("forall pi : trace . true", SINGLE_UNIVERSAL),
    # the full decidable shape: leading exists block, forall-q block, one forall-pi, trailing q
    (
        "exists q : prop . exists pi : trace . forall r : prop . "
        "forall pi2 : trace . exists s : prop . true",
        SINGLE_UNIVERSAL,
    ),
    # prop quantifiers after the universal trace may alternate freely
    ("forall pi : trace . forall q : prop . exists r : prop . true", SINGLE_UNIVERSAL),
    ("exists pi : trace . true", NO_UNIVERSAL),
    ("forall pi : trace . exists pi2 : trace . true", UNDEC_FORALL_EXISTS),
    (
        "forall pi : trace . forall pi2 : trace . exists pi3 : trace . true",
        UNDEC_FORALL_EXISTS,
    ),
    ("forall q : prop . exists r : prop . forall pi : trace . true", UNDEC_PROP_ALTERNATION),
    ("forall pi : trace . forall pi2 : trace . true", LINEAR_CANDIDATE),
    # an existential trace below a forall-q block fits no known region
    ("forall q : prop . exists pi : trace . forall pi2 : trace . true", OUTSIDE),
    # the edges of each pattern
    ("true", NO_UNIVERSAL),
    ("forall q : prop . exists pi : trace . true", NO_UNIVERSAL),
    ("exists pi : trace . forall q : prop . forall pi2 : trace . true", SINGLE_UNIVERSAL),
    ("exists q : prop . forall r : prop . forall pi : trace . true", SINGLE_UNIVERSAL),
    ("forall q : prop . forall pi : trace . exists pi2 : trace . true", UNDEC_FORALL_EXISTS),
    ("forall pi : trace . exists q : prop . exists pi2 : trace . true", UNDEC_FORALL_EXISTS),
    ("exists q : prop . forall r : prop . exists s : prop . forall pi : trace . true", UNDEC_PROP_ALTERNATION),
    ("forall q : prop . exists pi : trace . exists r : prop . forall pi2 : trace . true", UNDEC_PROP_ALTERNATION),
    ("forall q : prop . exists r : prop . forall pi : trace . exists s : prop . true", UNDEC_PROP_ALTERNATION),
    ("forall q : prop . exists r : prop . forall pi : trace . forall pi2 : trace . true", LINEAR_CANDIDATE),
    ("forall pi : trace . exists q : prop . forall pi2 : trace . true", LINEAR_CANDIDATE),
    ("exists pi : trace . forall q : prop . exists pi2 : trace . forall pi3 : trace . true", OUTSIDE),
]


@pytest.mark.parametrize("text,expected", CATALOG)
def test_catalog(text, expected):
    v = classify(pfx(text))
    assert v.kind == expected
    assert v.justification


def test_decidable_flag():
    kinds = {classify(pfx(t)).kind for t, _ in CATALOG}
    for t, expected in CATALOG:
        v = classify(pfx(t))
        assert v.decidable == (expected in (NO_UNIVERSAL, SINGLE_UNIVERSAL))
    # the non-linear verdict is reserved for the per-system check, never classify
    assert UNDEC_NONLINEAR not in kinds


def test_classify_formula_matches_prefix_classify():
    for t, expected in CATALOG:
        assert classify_formula(parse_formula(t, {"a"})).kind == expected


def test_verdict_rejects_unknown_kind():
    with pytest.raises(AssertionError):
        FragmentVerdict("Sideways", "no such region")
    assert len(set(ALL_VERDICTS)) == 7


# ---------------------------------------------------------------------------
# architectures and information forks

def test_fig_pair_verdicts():
    forked, witness = has_info_fork(parse_architecture(FORKED))
    assert forked
    pset, vset, p, p2 = witness
    assert {p, p2} == {"p", "pp"}
    ok, witness = has_info_fork(parse_architecture(CHAINED))
    assert not ok and witness is None


def test_single_process_has_no_fork():
    a = parse_architecture("env : inputs {} outputs {i}")
    assert has_info_fork(a) == (False, None)


def test_render_parse_round_trip():
    a = parse_architecture(FORKED)
    again = parse_architecture(render_architecture(a))
    assert again.processes == a.processes
    assert again.env == a.env
    assert dict(again.inputs) == dict(a.inputs)
    assert dict(again.outputs) == dict(a.outputs)


def test_architecture_validation():
    with pytest.raises(SpecError):
        parse_architecture("env : inputs {} outputs {o}\np : inputs {} outputs {o}")
    with pytest.raises(SpecError):
        parse_architecture("env : inputs {x} outputs {o}")
    with pytest.raises(SpecError):
        parse_architecture("p : inputs {} outputs {o}")
    with pytest.raises(SpecError):
        parse_architecture("env : inputs {} outputs {a}\nenv : inputs {} outputs {b}")
    with pytest.raises(SpecError):
        Architecture(("env", "p"), "missing", {"env": frozenset(), "p": frozenset()}, {})


def test_fork_agrees_with_brute_force():
    rng = random.Random(11)
    catalog = [parse_architecture(FORKED), parse_architecture(CHAINED)]
    archs = catalog + [random_architecture(rng) for _ in range(24)]
    for a in archs:
        got, witness = has_info_fork(a)
        assert got == brute_fork(a), render_architecture(a)
        if got:
            pset, vset, p, p2 = witness
            # the returned witness must itself satisfy the definition
            assert not vset & (a.inputs[p] | a.inputs[p2])
            assert rooted(a, pset, vset)
            assert any(feeds(a, q, p, p2) for q in pset)
            assert any(feeds(a, q2, p2, p) for q2 in pset)


def test_chained_inputs_never_fork():
    rng = random.Random(3)
    for _ in range(10):
        # build inputs that form a subset chain across the workers
        base = ["i1", "i2", "o1"]
        cut1 = rng.randrange(len(base) + 1)
        cut2 = rng.randrange(cut1, len(base) + 1)
        a = Architecture(
            ("env", "w1", "w2"),
            "env",
            {
                "env": frozenset(),
                "w1": frozenset(base[:cut1]),
                "w2": frozenset(base[:cut2]),
            },
            {
                "env": frozenset({"i1", "i2"}),
                "w1": frozenset({"o1"}),
                "w2": frozenset({"o2"}),
            },
        )
        ok, _ = has_info_fork(a)
        assert not ok
