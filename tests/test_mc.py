"""Product-graph model checking replayed against the reference evaluator."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from hypersynth import mc
from hypersynth.automata import accepting_sccs, flatten_atom, ltl_to_nba, split_atom
from hypersynth.bench import TABLE_INSTANCES, gen_arbiter
from hypersynth.formula import And, Not, SpecError, TraceForall, parse, parse_formula
from hypersynth.machines import ExistGenerator, MooreSystem, all_valuations
from hypersynth.mc import (
    accepts_lasso,
    body_trace_vars,
    build_product,
    generator_vars,
    mc_exists_forall,
)
from hypersynth.reductions import build_consistency, consistency_anchor, with_consistency
from hypersynth.semantics import LassoTrace, TraceSet, eval_formula
from hypersynth.synth import prepare
from test_acceptance import _depth3_bodies
from test_synth import ARBITER_K2

ECHO = MooreSystem(
    inputs=("r",),
    outputs=("g",),
    labels=(frozenset(), frozenset({"g"})),
    delta=((0, 1), (0, 1)),
    initial=0,
)

TOGGLER = MooreSystem(
    inputs=(),
    outputs=("g",),
    labels=(frozenset({"g"}), frozenset()),
    delta=((1,), (0,)),
    initial=0,
)


def body(text, *tvars):
    return parse_formula(text, {"r", "g"}, trace_vars=set(tvars) or {"pi"})


def drive(M, ilasso):
    """Run M on an ultimately periodic input word, returning the full trace lasso."""
    sig = frozenset(M.inputs) | frozenset(M.outputs)
    vals = []
    s = M.initial
    for w in ilasso.prefix:
        vals.append(M.labels[s] | w)
        s = M.step(s, w)
    loop = list(ilasso.loop)
    seen = {}
    tail = []
    idx = 0
    while (s, idx) not in seen:
        seen[(s, idx)] = len(tail)
        w = loop[idx]
        tail.append(M.labels[s] | w)
        s = M.step(s, w)
        idx = (idx + 1) % len(loop)
    cut = seen[(s, idx)]
    return LassoTrace(sig, tuple(vals) + tuple(tail[:cut]), tuple(tail[cut:]))


def replay(M, f, tvars, lassos, fixed=None):
    """The body's value on M's traces under the input lassos, plus any fixed traces."""
    traces = [drive(M, l) for l in lassos]
    assignment = {**dict(zip(tvars, traces)), **(fixed or {})}
    T = TraceSet(traces[0].signals, frozenset(assignment.values()))
    return eval_formula(f, T, assignment)


def reference_holds(M, trace_vars, nba, E=None):
    """(no accepting run, node count) of the whole product, built over frozenset
    letters and checked for accepting SCCs: the plain algorithm mc must agree with."""
    vals = all_valuations(M.inputs)
    start = [((M.initial,) * len(trace_vars), E.initial if E else 0, q) for q in nba.initial]
    index = {n: i for i, n in enumerate(start)}
    nodes, succ = list(start), {}
    for u, (vec, e, q) in enumerate(nodes):  # nodes grows while it is walked
        succ[u] = []
        for joint in itertools.product(range(len(vals)), repeat=len(trace_vars)):
            letter = set(E.labels[e]) if E else set()
            for var, s, x in zip(trace_vars, vec, joint):
                letter |= {flatten_atom(sig, var) for sig in M.labels[s] | vals[x]}
            vec2 = tuple(M.delta[s][x] for s, x in zip(vec, joint))
            for g, d in nba.edges[q]:
                if all((sig in letter) == val for sig, val in g):
                    node = (vec2, E.next_state[e] if E else 0, d)
                    if node not in index:
                        index[node] = len(nodes)
                        nodes.append(node)
                    succ[u].append(index[node])
    accepting = {i for i, n in enumerate(nodes) if n[2] in nba.accepting}
    return not accepting_sccs(len(nodes), succ, accepting), len(nodes)


# ---------------------------------------------------------------------------
# fixed systems

def test_toggler_alternates():
    ok, cex = mc_exists_forall(TOGGLER, None, body("G (g[pi] -> X !g[pi])"))
    assert ok and cex is None
    ok, cex = mc_exists_forall(TOGGLER, None, body("G (!g[pi] -> X g[pi])"))
    assert ok


def test_toggler_counterexample_replays():
    f = body("G g[pi]")
    ok, cex = mc_exists_forall(TOGGLER, None, f)
    assert not ok and len(cex) == 1
    assert replay(TOGGLER, f, ["pi"], cex) is False


def test_echo_grants_after_request():
    ok, _ = mc_exists_forall(ECHO, None, body("G (r[pi] -> X g[pi])"))
    assert ok
    ok, _ = mc_exists_forall(ECHO, None, body("G (!r[pi] -> X !g[pi])"))
    assert ok


def test_echo_does_not_hold_grants():
    f = body("G (g[pi] -> X g[pi])")
    ok, cex = mc_exists_forall(ECHO, None, f)
    assert not ok
    assert replay(ECHO, f, ["pi"], cex) is False


def test_two_copy_property_holds():
    f = body("G ((r[p1] & r[p2]) -> (X g[p1] & X g[p2]))", "p1", "p2")
    ok, cex = mc_exists_forall(ECHO, None, f)
    assert ok and cex is None


def test_two_copy_property_fails_with_two_lassos():
    f = body("G (g[p1] <-> g[p2])", "p1", "p2")
    ok, cex = mc_exists_forall(ECHO, None, f)
    assert not ok and len(cex) == 2
    assert replay(ECHO, f, ["p1", "p2"], cex) is False


def test_trace_var_order_matches_counterexample_order():
    f = body("F (g[p2] & !g[p1])", "p1", "p2")
    vars_seen = body_trace_vars(f)
    assert vars_seen == ["p2", "p1"]
    ok, cex = mc_exists_forall(ECHO, None, f)
    # satisfiable by some pair, so the universal check fails and replays false
    assert not ok
    assert replay(ECHO, f, vars_seen, cex) is False


def test_body_trace_vars_rejects_quantifier():
    with pytest.raises(SpecError):
        body_trace_vars(TraceForall("pi", body("g[pi]")))


# ---------------------------------------------------------------------------
# randomized differential: verdicts and counterexamples against the evaluator

BODY_POOL = [
    ("G (r[p1] -> X g[p1])", ["p1"]),
    ("G (g[p1] -> X g[p1])", ["p1"]),
    ("F g[p1]", ["p1"]),
    ("G (F (r[p1] | g[p1]))", ["p1"]),
    ("(!g[p1]) W r[p1]", ["p1"]),
    ("G (g[p1] <-> g[p2])", ["p1", "p2"]),
    ("G ((r[p1] <-> r[p2]) -> X (g[p1] <-> g[p2]))", ["p1", "p2"]),
    ("F (g[p1] & !g[p2])", ["p1", "p2"]),
    ("(r[p1] <-> r[p2]) R (g[p1] <-> g[p2])", ["p1", "p2"]),
]


def _random_system(rng, max_states=3):
    n = rng.randrange(1, max_states + 1)
    labels = tuple(frozenset({"g"}) if rng.random() < 0.5 else frozenset() for _ in range(n))
    delta = tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(n))
    return MooreSystem(("r",), ("g",), labels, delta, rng.randrange(n))


def _random_input_lasso(rng):
    pick = lambda: frozenset({"r"}) if rng.random() < 0.5 else frozenset()
    pre = tuple(pick() for _ in range(rng.randrange(3)))
    loop = tuple(pick() for _ in range(rng.randrange(1, 3)))
    return LassoTrace(frozenset({"r"}), pre, loop)


def test_universal_verdicts_randomized():
    rng = random.Random(7)
    for _ in range(40):
        M = _random_system(rng)
        text, tvars = BODY_POOL[rng.randrange(len(BODY_POOL))]
        f = body(text, *tvars)
        ok, cex = mc_exists_forall(M, None, f)
        if not ok:
            # the counterexample must actually violate the body
            assert replay(M, f, body_trace_vars(f), cex) is False
        else:
            # spot check: sampled assignments must satisfy it
            for _ in range(5):
                sample = [_random_input_lasso(rng) for _ in tvars]
                assert replay(M, f, body_trace_vars(f), sample) is True


def test_universal_verdicts_match_full_product():
    rng = random.Random(11)
    for text, tvars in BODY_POOL:
        f = body(text, *tvars)
        for _ in range(12):
            M = _random_system(rng, 4)
            ok, cex = mc_exists_forall(M, None, f)
            assert ok == reference_holds(M, body_trace_vars(f), ltl_to_nba(Not(f)))[0]
            if not ok:
                assert replay(M, f, body_trace_vars(f), cex) is False


def test_search_stops_at_first_accepting_cycle():
    # a 40-state ring that advances on r; its initial state already grants
    n = 40
    ring = MooreSystem(("r",), ("g",), (frozenset({"g"}),) + (frozenset(),) * (n - 1),
                       tuple((s, (s + 1) % n) for s in range(n)), 0)
    f = body("G !g[pi]")
    nba = ltl_to_nba(Not(f))
    holds, full = reference_holds(ring, ["pi"], nba)
    assert not holds
    pg = build_product(ring, ["pi"], nba)
    assert pg.lasso is not None and len(pg.nodes) < full / 10
    ok, cex = mc_exists_forall(ring, None, f)
    assert not ok and replay(ring, f, ["pi"], cex) is False


def test_edge_into_finished_component_closes_no_cycle():
    # s0 -> s1 -> s3 and s0 -> s2 -> s1: the search finishes s1 and s3 first,
    # then reaches s1 again from s2; that edge must not merge s0 and s2 into
    # one component with s1, or a run that always grants at s3 looks like a violation
    M = MooreSystem(("r",), ("g",), (frozenset(),) * 3 + (frozenset({"g"}),),
                    ((1, 2), (3, 3), (1, 1), (3, 3)), 0)
    f = body("F g[pi]")
    assert reference_holds(M, ["pi"], ltl_to_nba(Not(f)))[0]
    assert mc_exists_forall(M, None, f) == (True, None)


def test_lasso_membership_matches_evaluator():
    # every 20th body of the depth-3 pool, on all 100 words with a prefix of
    # at most one letter and a loop of one or two
    plain = ("a", "b")
    letters = [frozenset(s for b, s in enumerate(plain) if d >> b & 1) for d in range(4)]
    words = [(pre, loop) for p, l in [(0, 1), (0, 2), (1, 1), (1, 2)]
             for pre in itertools.product(letters, repeat=p)
             for loop in itertools.product(letters, repeat=l)]
    assert len(words) == 100
    at_pi = lambda vals: [frozenset(flatten_atom(s, "pi") for s in v) for v in vals]
    for f in _depth3_bodies()[::20]:
        nba = ltl_to_nba(f)
        for pre, loop in words:
            t = LassoTrace(frozenset(plain), pre, loop)
            want = eval_formula(f, TraceSet(t.signals, frozenset({t})), {"pi": t})
            assert accepts_lasso(nba, at_pi(pre), at_pi(loop)) == want, (str(f), pre, loop)


# ---------------------------------------------------------------------------
# existential witnesses and consistency

def egen(labels, next_state, signals=("r@e", "g@e")):
    return ExistGenerator(tuple(signals), tuple(frozenset(l) for l in labels), tuple(next_state))


def test_generator_vars():
    E = ExistGenerator(("a@e", "b@e", "a@f"), (frozenset(),), (0,))
    assert generator_vars(E) == ["e", "f"]
    with pytest.raises(SpecError):
        generator_vars(ExistGenerator(("plain",), (frozenset(),), (0,)))


def test_honest_witness_accepted():
    # claims the always-request branch of the echo machine, grant from step 1 on
    E = egen([{"r@e"}, {"r@e", "g@e"}], [1, 1])
    f = parse_formula("F g[e]", {"r", "g"}, trace_vars={"e"})
    ok, cex = mc_exists_forall(ECHO, E, f)
    assert ok and cex is None


def test_cheating_witness_rejected():
    # claims a branch that requests forever yet is never granted; no such branch exists
    E = egen([{"r@e"}], [0])
    f = parse_formula("G !g[e]", {"r", "g"}, trace_vars={"e"})
    ok, cex = mc_exists_forall(ECHO, E, f)
    assert not ok


def test_witness_must_satisfy_body_too():
    # honest branch, but the body asks for something that branch lacks
    E = egen([{"r@e"}, {"r@e", "g@e"}], [1, 1])
    f = parse_formula("G !g[e]", {"r", "g"}, trace_vars={"e"})
    ok, _ = mc_exists_forall(ECHO, E, f)
    assert not ok


def test_exists_forall_mixed_body():
    # some branch eventually stays ahead of every branch on grants: false for echo
    E = egen([{"r@e"}, {"r@e", "g@e"}], [1, 1])
    f = parse_formula(
        "G (g[pi] -> g[e])", {"r", "g"}, trace_vars={"e", "pi"}
    )
    ok, cex = mc_exists_forall(ECHO, E, f)
    # the always-request witness is granted from step 1 on, so it dominates
    assert ok
    E_idle = egen([set()], [0])
    ok, cex = mc_exists_forall(ECHO, E_idle, f)
    assert not ok


def test_exists_forall_without_generator_is_universal():
    f = body("G (r[pi] -> X g[pi])")
    ok, cex = mc_exists_forall(ECHO, None, f)
    assert ok and cex is None


E_BODIES = [
    "F g[e]",
    "G (r[e] -> X g[e])",
    "G (g[p1] <-> g[e])",
    "G (g[p1] -> g[e])",
    "G ((r[p1] <-> r[e]) -> X (g[p1] <-> g[e]))",
    "F (g[p1] & !g[e])",
    "(r[p1] <-> r[e]) R (g[p1] <-> g[e])",
]


def _random_generator(rng, signals):
    m = rng.randrange(1, 4)
    labels = [{s for s in signals if rng.random() < 0.5} for _ in range(m)]
    return egen(labels, [rng.randrange(m) for _ in range(m)], signals)


def generator_trace(M, E):
    """The generator's word as a trace of M's signals, one copy's atoms unflattened."""
    un = lambda vals: tuple(frozenset(split_atom(s)[0] for s in v) for v in vals)
    pre, loop = E.output_lasso()
    return LassoTrace(frozenset(M.inputs) | frozenset(M.outputs), un(pre), un(loop))


def test_exists_forall_verdicts_match_full_product():
    rng = random.Random(5)
    # the last generator declares r@e but not the g@e the bodies read: an edge
    # that needs g@e is dropped, and !g[e] always holds
    for signals in [("r@e", "g@e")] * 4 + [("r@e",)]:
        for text in E_BODIES:
            f = parse_formula(text, {"r", "g"}, trace_vars={"e", "p1"})
            for _ in range(2):
                M, E = _random_system(rng, 4), _random_generator(rng, signals)
                # the universal copies and formula that mc_exists_forall checks
                anchor = consistency_anchor(f, ["e"])
                uvars = [v for v in body_trace_vars(f) if v != "e"] or [anchor]
                checked = And(f, build_consistency(["e"], anchor, M.inputs, M.outputs))
                ok, cex = mc_exists_forall(M, E, f)
                assert ok == reference_holds(M, uvars, ltl_to_nba(Not(checked)), E)[0]
                if not ok:
                    fixed = {"e": generator_trace(M, E)}
                    assert replay(M, checked, uvars, cex, fixed) is False


# ---------------------------------------------------------------------------
# the on-demand product, at the shape of perfbench's verify-random workload

TWO_INPUTS = ("r1", "r2")
TWO_OUTPUTS = ("g1", "g2")


def _two_input_system(rng, n):
    # at most one grant per state, as in verify-random's random machines
    labels = tuple(frozenset(rng.choice(((),) + tuple((o,) for o in TWO_OUTPUTS))) for _ in range(n))
    delta = tuple(tuple(rng.randrange(n) for _ in range(4)) for _ in range(n))
    return MooreSystem(TWO_INPUTS, TWO_OUTPUTS, labels, delta, 0)


def _two_input_body(rng, text, tvars):
    """A BODY_POOL body with r and g on each copy renamed to one of r1/r2, g1/g2."""
    for var in ("p1", "p2"):
        text = text.replace(f"r[{var}]", f"r{rng.choice('12')}[{var}]")
        text = text.replace(f"g[{var}]", f"g{rng.choice('12')}[{var}]")
    return parse_formula(text, set(TWO_INPUTS + TWO_OUTPUTS), trace_vars=set(tvars))


def _branch_generator(rng, M, var="e"):
    """A generator for the copy var whose word is M's branch under a random
    input lasso, so it passes the consistency check."""
    pick = lambda: frozenset(i for i in TWO_INPUTS if rng.random() < 0.5)
    ilasso = LassoTrace(frozenset(TWO_INPUTS), tuple(pick() for _ in range(rng.randrange(3))),
                        tuple(pick() for _ in range(rng.randrange(1, 3))))
    t = drive(M, ilasso)
    word = t.prefix + t.loop
    p, m = len(t.prefix), len(word)
    labels = [{flatten_atom(s, var) for s in v} for v in word]
    return egen(labels, list(range(1, m)) + [p], [flatten_atom(s, var) for s in TWO_INPUTS + TWO_OUTPUTS])


def _assert_made_on_demand(pg):
    # every node was expanded, and no node names the same successor twice
    assert set(pg.edges) == set(range(len(pg.nodes)))
    for es in pg.edges.values():
        targets = [v for _, v in es]
        assert len(set(targets)) == len(targets)


def test_product_makes_only_what_the_search_reaches():
    n = 40
    ring = MooreSystem(("r",), ("g",), (frozenset({"g"}),) + (frozenset(),) * (n - 1),
                       tuple((s, (s + 1) % n) for s in range(n)), 0)
    pg = build_product(ring, ["pi"], ltl_to_nba(Not(body("G !g[pi]"))))
    assert pg.lasso is not None
    _assert_made_on_demand(pg)

    f = parse_formula("G ((r1[p1] <-> r1[p2]) -> X (g1[p1] <-> g1[p2]))",
                      set(TWO_INPUTS + TWO_OUTPUTS), trace_vars={"p1", "p2"})
    nba = ltl_to_nba(Not(f))
    rng = random.Random(3)
    M = _two_input_system(rng, 6)
    while reference_holds(M, ["p1", "p2"], nba)[0]:
        M = _two_input_system(rng, 6)
    pg = build_product(M, ["p1", "p2"], nba)
    assert pg.lasso is not None
    _assert_made_on_demand(pg)


def test_verify_random_shape_matches_full_product():
    rng = random.Random(35)
    k2 = [(text, tvars) for text, tvars in BODY_POOL if len(tvars) == 2]
    e_signals = tuple(flatten_atom(s, "e") for s in TWO_INPUTS + TWO_OUTPUTS)
    verdicts = []
    for with_generator in (False, True):
        for _ in range(40):
            M = _two_input_system(rng, rng.randrange(4, 9))
            text, tvars = k2[rng.randrange(len(k2))]
            f = _two_input_body(rng, text, tvars)
            if with_generator:
                f = parse_formula(str(f).replace("[p2]", "[e]"),
                                  set(TWO_INPUTS + TWO_OUTPUTS), trace_vars={"p1", "e"})
                E = _random_generator(rng, e_signals) if rng.random() < 0.5 else _branch_generator(rng, M)
                anchor = consistency_anchor(f, ["e"])
                uvars = [v for v in body_trace_vars(f) if v != "e"] or [anchor]
                checked = And(f, build_consistency(["e"], anchor, M.inputs, M.outputs))
                fixed = {"e": generator_trace(M, E)}
            else:
                E, uvars, checked, fixed = None, body_trace_vars(f), f, None
            ok, cex = mc_exists_forall(M, E, f)
            assert ok == reference_holds(M, uvars, ltl_to_nba(Not(checked)), E)[0], str(f)
            if not ok:
                assert replay(M, checked, uvars, cex, fixed) is False, str(f)
            verdicts.append((with_generator, ok))
    # both verdicts occur, with and without a generator
    assert set(verdicts) == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# the projected product: each node keeps what its automaton state still reads


def _dropped(M, trace_vars, nba, E, q):
    """(copies, generator) of a node at q as NBA.reads leaves them: -1 for a
    copy none of whose outputs q still reads, None for an unread generator."""
    reads = nba.reads[q]
    copies = tuple(reads.isdisjoint(flatten_atom(o, v) for o in M.outputs) for v in trace_vars)
    return copies, E is None or reads.isdisjoint(E.signals)


def test_product_nodes_drop_what_the_automaton_no_longer_reads():
    # once the automaton of the negated body has seen g1 on one side, it reads
    # only the other: p2 (or the generator) and p1 are each dropped in turn
    signals = set(TWO_INPUTS + TWO_OUTPUTS)
    k2 = parse_formula("G !g1[p2] | G (r1[p1] -> X g1[p1])", signals, trace_vars={"p1", "p2"})
    ke = parse_formula("G !g1[e] | G (r1[p1] -> X g1[p1])", signals, trace_vars={"p1", "e"})
    rng = random.Random(37)
    for f, evars in ((k2, ()), (ke, ("e",))):
        kinds = set()
        for _ in range(12):
            M = _two_input_system(rng, rng.randrange(4, 9))
            E = _branch_generator(rng, M) if evars else None
            checked = with_consistency(f, evars, M.inputs, M.outputs)
            uvars = [v for v in body_trace_vars(checked) if v not in evars]
            nba = ltl_to_nba(Not(checked))
            pg = build_product(M, uvars, nba, E)
            for vec, e, q in pg.nodes:
                copies, no_gen = _dropped(M, uvars, nba, E, q)
                assert tuple(s == -1 for s in vec) == copies
                assert (e is None) == no_gen
                kinds.add((copies, no_gen))
            if pg.lasso is not None:
                fixed = {"e": generator_trace(M, E)} if evars else None
                assert replay(M, checked, uvars, mc_exists_forall(M, E, f)[1], fixed) is False
        # every combination of kept and dropped components occurs
        assert len(kinds) == 4, kinds


def test_projected_product_node_tripwire():
    # 40 machines of verify-random's shape (4 to 16 states, at most one grant
    # per state) against the body of perfbench's arbiter2_k2.hq, all of them
    # violations: keeping every copy at every node made 2,509 nodes here
    core = prepare(parse("inputs: r1, r2\noutputs: g1, g2\n" + ARBITER_K2)).core
    uvars = body_trace_vars(core)
    nba = ltl_to_nba(Not(core))
    rng = random.Random(37)
    total = 0
    for j in range(40):
        pg = build_product(_two_input_system(rng, 4 + j % 13), uvars, nba)
        assert pg.lasso is not None
        total += len(pg.nodes)
    assert total <= 338


def test_exploration_pin():
    # the tripwire's 40 machines: verdict, product-node count and each copy's
    # counterexample lasso, as one digest, so a change that makes the check
    # cheaper cannot change what it explores or returns; valuations are
    # written as sorted signals, so the digest does not depend on PYTHONHASHSEED
    core = prepare(parse("inputs: r1, r2\noutputs: g1, g2\n" + ARBITER_K2)).core
    uvars = body_trace_vars(core)
    nba = ltl_to_nba(Not(core))
    rng = random.Random(37)
    rows = []
    for j in range(40):
        M = _two_input_system(rng, 4 + j % 13)
        ok, cex = mc_exists_forall(M, None, core)
        lassos = [[[sorted(v) for v in part] for part in (l.prefix, l.loop)] for l in cex or ()]
        rows.append([ok, len(build_product(M, uvars, nba).nodes), lassos])
    digest = hashlib.sha1(json.dumps(rows).encode()).hexdigest()
    assert digest == "d8bcba4be6a7964aa54dfc0ad958e11eb91c4f91"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _known_good_generator_pairs():
    """(system, generator, core) of each known-good pair of perfbench's data
    file that carries a generator."""
    known = json.loads((PERFBENCH / "data" / "known_good.json").read_text(encoding="utf-8"))
    out = []
    for entry in known["machines"]:
        if entry["generator"]:
            doc = (gen_arbiter(**entry["arbiter"]) if "arbiter" in entry
                   else parse((PERFBENCH / "specs" / entry["spec"]).read_text(encoding="utf-8")))
            M = MooreSystem.from_json(json.dumps(entry["system"]))
            E = ExistGenerator.from_json(json.dumps(entry["generator"]))
            out.append((M, E, prepare(doc).core))
    return out


def test_generator_exploration_pin():
    # test_exploration_pin's digest on the path keyed on the generator state,
    # against the README demo's core: 45 seeded random machines, each with a
    # random generator or one that follows a branch of the machine, and 15
    # branches of the demo's known-good machine; then the known-good pairs
    # that carry a generator
    demo = prepare(parse((PERFBENCH / "specs" / "demo.hq").read_text(encoding="utf-8")))
    (var,) = demo.exist_vars
    known = _known_good_generator_pairs()
    assert len(known) == 4
    good = next(M for M, E, core in known if core == demo.core)
    rng = random.Random(42)
    cases = []
    for j in range(60):
        M = _two_input_system(rng, 2 + j % 7) if j < 45 else good
        E = _random_generator(rng, demo.gen_signals) if j % 4 == 0 else _branch_generator(rng, M, var)
        cases.append((M, E, demo.core))
    rows = []
    for M, E, core in cases + known:
        ok, cex = mc_exists_forall(M, E, core)
        uvars, nba = mc._checked(core, tuple(generator_vars(E)), M.inputs, M.outputs)
        lassos = [[[sorted(v) for v in part] for part in (l.prefix, l.loop)] for l in cex or ()]
        rows.append([ok, len(build_product(M, list(uvars), nba, E).nodes), lassos])
    # both verdicts occur on the demo; every known-good pair holds
    assert {ok for ok, _, _ in rows[:60]} == {True, False}
    assert all(ok for ok, _, _ in rows[60:])
    digest = hashlib.sha1(json.dumps(rows).encode()).hexdigest()
    assert digest == "b62ca8521b9f9bb416caac7b31d98aaf544e6323"


def test_masked_successor_lookup_is_exact():
    # build_product looks up a state's successors under the letter cut to the
    # bits its own guards read; over every letter (a fixed sample above 2^16),
    # that gives what the guard scan on the whole letter gives
    specs = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "specs").glob("*.hq"))
    docs = [b.doc for b in TABLE_INSTANCES] + [parse(p.read_text(encoding="utf-8")) for p in specs]
    assert len(docs) == 6
    for doc in docs:
        inst = prepare(doc)
        uvars, nba = mc._checked(inst.core, inst.exist_vars, inst.inputs, inst.outputs)
        gen = tuple(flatten_atom(a, e) for e in inst.exist_vars for a in inst.inputs + inst.outputs)
        lay = mc._layout(nba, inst.inputs, inst.outputs, uvars, gen)
        width = len(lay.bit)
        letters = range(1 << width) if width <= 16 else random.Random(1).sample(range(1 << width), 4096)
        for q, guards in enumerate(lay.guards):
            masked = {}
            for letter in letters:
                cut = letter & lay.local[q]
                if cut not in masked:
                    masked[cut] = mc._successors(guards, cut)
                assert masked[cut] == mc._successors(guards, letter), (q, letter)


def test_successor_lists_are_computed_once_per_automaton(monkeypatch):
    # the successor lists live in the cached layout: a second identical call
    # computes none of them
    computed = []

    def counting(guards, letter):
        computed.append(letter)
        return successors(guards, letter)

    successors = mc._successors
    monkeypatch.setattr(mc, "_successors", counting)
    core = prepare(parse("inputs: r1, r2\noutputs: g1, g2\n" + ARBITER_K2)).core
    M = _two_input_system(random.Random(4), 9)
    mc._layout.cache_clear()
    first = mc_exists_forall(M, None, core)
    assert computed
    computed.clear()
    assert mc_exists_forall(M, None, core) == first
    assert computed == []


def test_successor_tables_are_bounded_and_exact():
    # after a sweep of verify-random's shape, each state q holds at most one
    # list per subset of its local guard bits, and every list is what a scan
    # of q's guards in the automaton gives on that letter
    core = prepare(parse("inputs: r1, r2\noutputs: g1, g2\n" + ARBITER_K2)).core
    demo = prepare(parse((PERFBENCH / "specs" / "demo.hq").read_text(encoding="utf-8")))
    (var,) = demo.exist_vars
    rng = random.Random(41)
    cases = [(_two_input_system(rng, 4 + j % 13), None, core) for j in range(40)]
    for j in range(20):
        M = _two_input_system(rng, 2 + j % 7)
        cases.append((M, _branch_generator(rng, M, var), demo.core))
    cases += _known_good_generator_pairs()
    layouts = {}
    for M, E, core in cases:
        mc_exists_forall(M, E, core)
        # the cached layout that call explored with
        evars, signals = (tuple(generator_vars(E)), E.signals) if E is not None else ((), ())
        uvars, nba = mc._checked(core, evars, M.inputs, M.outputs)
        lay = mc._layout(nba, M.inputs, M.outputs, uvars, signals)
        layouts[id(lay)] = nba, lay
    assert len(layouts) >= 4
    for nba, lay in layouts.values():
        assert len(lay.targets) == len(nba.edges)
        assert any(lay.targets)
        for q, table in enumerate(lay.targets):
            assert len(table) <= 2 ** bin(lay.local[q]).count("1")
            for cut, ds in table.items():
                assert cut & ~lay.local[q] == 0
                letter = {sig for sig, b in lay.bit.items() if cut & b}
                assert ds == sorted({d for g, d in nba.edges[q]
                                     if all((sig in letter) == val for sig, val in g)}), (q, cut)


# ---------------------------------------------------------------------------
# machine serialization

def test_moore_json_round_trip():
    again = MooreSystem.from_json(ECHO.to_json())
    assert again == ECHO


def test_generator_json_round_trip():
    E = egen([{"r@e"}, {"r@e", "g@e"}], [1, 1])
    again = ExistGenerator.from_json(E.to_json())
    assert again == E


def test_generator_json_state_count_must_match_labels():
    doc = json.loads(egen([{"r@e"}, set()], [1, 0]).to_json())
    for bad in (7, 1, "2", None):
        with pytest.raises(ValueError):
            ExistGenerator.from_json(json.dumps({**doc, "states": bad}))


def test_moore_json_state_count_must_match_labels():
    # the count is checked before a transition table of that many rows is
    # made, so a huge claim fails at once with the mismatch
    doc = json.loads(ECHO.to_json())
    for bad in (10**6, 1, "2", None):
        with pytest.raises(ValueError, match="does not match 2 labels"):
            MooreSystem.from_json(json.dumps({**doc, "states": bad}))
    # and so is a table of 2^40 inputs per state that the transitions cannot fill
    wide = {**doc, "inputs": [f"i{j}" for j in range(40)]}
    with pytest.raises(ValueError, match="incomplete transition function"):
        MooreSystem.from_json(json.dumps(wide))


def test_moore_validation():
    with pytest.raises(ValueError):
        MooreSystem(("r",), ("g",), (), ())
    with pytest.raises(ValueError):
        MooreSystem(("r",), ("g",), (frozenset(),), ((0,),))
    with pytest.raises(ValueError):
        MooreSystem(("r",), ("g",), (frozenset(),), ((0, 5),))
    with pytest.raises(ValueError):
        MooreSystem(("r",), ("g",), (frozenset(),), ((0, 0),), initial=3)


def test_generator_output_lasso():
    E = egen([{"r@e"}, set(), {"g@e"}], [1, 2, 1])
    pre, loop = E.output_lasso()
    assert pre == (frozenset({"r@e"}),)
    assert loop == (frozenset(), frozenset({"g@e"}))


def test_dot_outputs_render():
    assert ECHO.to_dot().startswith("digraph moore")
