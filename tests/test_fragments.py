"""Prefix classification, information forks, and the per-system linearity check."""

import itertools
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
    check_linear_on_system,
    classify,
    classify_formula,
    has_info_fork,
    parse_architecture,
    render_architecture,
)
from hypersynth.formula import extract_prefix
from hypersynth.machines import MooreSystem
from hypersynth.reductions import collapse


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


def test_collapse_never_less_decidable():
    f = parse_formula(
        "forall p1 : trace . forall p2 : trace . G (a[p1] <-> a[p2])", {"a"}
    )
    assert classify_formula(f).kind == LINEAR_CANDIDATE
    assert classify_formula(collapse(f)).kind == SINGLE_UNIVERSAL


# ---------------------------------------------------------------------------
# architectures and information forks

FORKED = """
env : inputs {} outputs {i, ip}
p : inputs {i} outputs {o}
pp : inputs {ip} outputs {op}
"""

CHAINED = """
env : inputs {} outputs {i, ip}
p : inputs {i} outputs {o}
pp : inputs {i, ip} outputs {op}
"""


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


# brute force straight from the definition: enumerate every candidate tuple

def _rooted(a, pset, vset):
    region = {a.env}
    todo = [a.env]
    while todo:
        x = todo.pop()
        for y in pset:
            if y not in region and a.edge_label(x, y) & vset:
                region.add(y)
                todo.append(y)
    return region == set(pset)


def _feeds(a, q, p, other):
    inter = a.outputs[q] & a.inputs[p]
    return bool(inter) and not inter <= a.inputs[other]


def brute_fork(a):
    procs = list(a.processes)
    allvars = sorted(a.all_vars())
    others = [x for x in procs if x != a.env]
    for p, p2 in itertools.permutations(procs, 2):
        banned = a.inputs[p] | a.inputs[p2]
        avail = [v for v in allvars if v not in banned]
        for r in range(len(avail) + 1):
            for vsub in itertools.combinations(avail, r):
                vset = frozenset(vsub)
                for k in range(len(others) + 1):
                    for psub in itertools.combinations(others, k):
                        pset = frozenset(psub) | {a.env}
                        if not _rooted(a, pset, vset):
                            continue
                        if any(_feeds(a, q, p, p2) for q in pset) and any(
                            _feeds(a, q2, p2, p) for q2 in pset
                        ):
                            return True
    return False


def _random_architecture(rng):
    env_out = frozenset({"i1", "i2"})
    workers = ["w1", "w2", "w3"]
    inputs = {"env": frozenset()}
    outputs = {"env": env_out}
    for k, w in enumerate(workers, start=1):
        outputs[w] = frozenset({f"o{k}"})
    pool = sorted(env_out) + [f"o{k}" for k in range(1, 4)]
    for k, w in enumerate(workers, start=1):
        choices = [v for v in pool if v != f"o{k}"]
        inputs[w] = frozenset(v for v in choices if rng.random() < 0.45)
    return Architecture(("env", *workers), "env", inputs, outputs)


def test_fork_agrees_with_brute_force():
    rng = random.Random(11)
    catalog = [parse_architecture(FORKED), parse_architecture(CHAINED)]
    archs = catalog + [_random_architecture(rng) for _ in range(24)]
    for a in archs:
        got, witness = has_info_fork(a)
        assert got == brute_fork(a), render_architecture(a)
        if got:
            pset, vset, p, p2 = witness
            # the returned witness must itself satisfy the definition
            assert not vset & (a.inputs[p] | a.inputs[p2])
            assert _rooted(a, pset, vset)
            assert any(_feeds(a, q, p, p2) for q in pset)
            assert any(_feeds(a, q2, p2, p) for q2 in pset)


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


# ---------------------------------------------------------------------------
# the per-system linearity check

CONST = MooreSystem(("i",), ("o",), (frozenset({"o"}),), ((0, 0),), 0)
ECHO = MooreSystem(("r",), ("g",), (frozenset(), frozenset({"g"})), ((0, 1), (0, 1)), 0)


def test_constant_system_linear_with_empty_dependence():
    f = parse_formula(
        "forall p1 : trace . forall p2 : trace . G (o[p1] <-> o[p2])", {"i", "o"}
    )
    v = check_linear_on_system(f, {"o": frozenset()}, CONST)
    assert v.equivalent and v.left and v.right and v.exact
    assert bool(v)


def test_identity_collapse_with_full_dependence():
    f = parse_formula("forall pi : trace . G (g[pi] -> g[pi])", {"r", "g"})
    v = check_linear_on_system(f, {"g": frozenset({"r"})}, ECHO)
    assert v.equivalent and v.left and v.right


def test_underdeclared_dependence_detected():
    # the echo output does depend on its input, so dep(none, g) fails on the right
    f = parse_formula("forall pi : trace . G (g[pi] -> g[pi])", {"r", "g"})
    v = check_linear_on_system(f, {"g": frozenset()}, ECHO)
    assert v.left and not v.right and not v.equivalent
    assert not bool(v)


def test_j_must_be_chain():
    f = parse_formula(
        "forall pi : trace . G (o1[pi] | !o1[pi])", {"i1", "i2", "o1", "o2"}
    )
    M = MooreSystem(
        ("i1", "i2"),
        ("o1", "o2"),
        (frozenset(),),
        ((0, 0, 0, 0),),
        0,
    )
    with pytest.raises(SpecError):
        check_linear_on_system(
            f, {"o1": frozenset({"i1"}), "o2": frozenset({"i2"})}, M
        )
    with pytest.raises(SpecError):
        check_linear_on_system(f, {"o1": frozenset()}, M)


def test_prop_quantifier_tail_uses_bounded_oracle():
    f = parse_formula(
        "forall pi : trace . exists q : prop . G (q -> g[pi])", {"r", "g"}
    )
    v = check_linear_on_system(f, {"g": frozenset({"r"})}, ECHO)
    assert not v.exact
    assert v.left and v.right and v.equivalent


def test_formula_needs_universal_trace():
    f = parse_formula("exists q : prop . G (q -> q)", {"r", "g"})
    with pytest.raises(SpecError):
        check_linear_on_system(f, {"g": frozenset({"r"})}, ECHO)
