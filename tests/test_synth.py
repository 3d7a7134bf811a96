"""End-to-end synthesis: prepare, encode, solve, search."""

import dataclasses
import hashlib
import itertools
import random
import subprocess
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hypersynth import synth
from hypersynth.automata import flatten_atom, ltl_to_nba, split_atom, tarjan_sccs
from hypersynth.bench import gen_arbiter
from hypersynth.formula import (
    FALSE,
    TRUE,
    And,
    PropExists,
    SpecDocument,
    SpecError,
    TraceAtom,
    TraceForall,
    parse,
    print_document,
    print_formula,
)
from hypersynth.fragments import SINGLE_UNIVERSAL, UNDEC_FORALL_EXISTS
from hypersynth.machines import ExistGenerator, MooreSystem, all_valuations
from hypersynth.mc import mc_exists_forall
from hypersynth.sat import emit_dimacs, solve_clauses
from hypersynth.semantics import eval_formula, system_traces
from hypersynth.synth import (
    CLAUSE_FAMILIES,
    EncoderSoundnessError,
    SolverFailure,
    encode,
    prepare,
    search,
    solve,
    solve_at_bounds,
)
from _reference_encoding import reference_verdict
from test_sat import TABLE_SOLVES


def spec(body, inputs="i", outputs="o"):
    return parse(f"inputs: {inputs}\noutputs: {outputs}\n{body}")


ALWAYS = "forall pi : trace . G (o[pi])"
CONTRADICTION = "forall pi : trace . (G (o[pi])) & (F (!(o[pi])))"
# a Moore machine fixes o before reading the current input, so this has no model
INSTANT_ECHO = "forall pi : trace . G (o[pi] <-> i[pi])"


def test_always_grant_sat_at_one_state():
    inst = prepare(spec(ALWAYS))
    res = solve_at_bounds(inst, 1, 1)
    assert res.status == "sat"
    assert res.system is not None and len(res.system.labels) == 1
    assert res.system.labels[0] == frozenset({"o"})
    ok, _ = mc_exists_forall(res.system, None, inst.body)
    assert ok


def test_contradiction_unsat_at_small_bounds():
    inst = prepare(spec(CONTRADICTION))
    for n in (1, 2, 3):
        assert solve_at_bounds(inst, n, 1).status == "unsat"


def test_instant_echo_unrealizable():
    inst = prepare(spec(INSTANT_ECHO))
    for n in (1, 2, 3):
        assert solve_at_bounds(inst, n, 1).status == "unsat"


def test_delayed_echo_realizable():
    inst = prepare(spec("forall pi : trace . G (i[pi] -> (X (o[pi])))"))
    res = solve_at_bounds(inst, 2, 1)
    assert res.status == "sat"
    ok, _ = mc_exists_forall(res.system, None, inst.body)
    assert ok


def test_existential_witness_with_consistency():
    text = "exists e : trace . forall pi : trace . G (o[pi] <-> o[e])"
    inst = prepare(spec(text))
    assert inst.exist_vars == ("e",)
    assert "consistency" in {s.name for s in inst.trace.steps}
    res = solve_at_bounds(inst, 1, 1)
    assert res.status == "sat"
    assert res.generator is not None


def test_prop_quantifier_routed_through_designated_input():
    text = "exists q : prop . forall pi : trace . G (q -> o[pi])"
    inst = prepare(spec(text))
    steps = {s.name for s in inst.trace.steps}
    assert "to_hyperltl" in steps
    assert inst.designated_input == "i"
    assert inst.exist_vars and inst.universal_vars == ("pi",)
    assert solve_at_bounds(inst, 1, 1).status == "sat"


def test_prepare_rejects_unknown_designated_input():
    text = "exists q : prop . forall pi : trace . G (q -> o[pi])"
    with pytest.raises(SpecError):
        prepare(spec(text), designated_input="zz")
    # checked even where no propositional quantifier would read it
    with pytest.raises(SpecError, match="not a declared input"):
        prepare(spec(ALWAYS), designated_input="zz")


def test_prepare_rejects_quantifier_free_body():
    with pytest.raises(SpecError, match="no trace quantifiers"):
        prepare(spec("true"))


def test_prepare_names_quantified_propositions_as_the_parser_does():
    # a quantified proposition named like an output is refused by prepare
    # and by the parser alike, with the same words
    doc = SpecDocument(("r",), ("g",), PropExists("g", TraceForall("pi", TraceAtom("g", "pi"))))
    with pytest.raises(SpecError, match="collides with a declared signal"):
        prepare(doc)
    with pytest.raises(SpecError, match="collides with a declared signal"):
        parse(print_document(doc))


def test_prepare_rejects_forall_exists_without_force():
    text = "forall pi : trace . exists e : trace . G (o[e] <-> i[pi])"
    with pytest.raises(SpecError, match="force"):
        prepare(spec(text))


def test_force_proceeds_bound_relative():
    text = "forall pi : trace . exists e : trace . G (o[e] -> o[pi])"
    inst = prepare(spec(text), force=True)
    assert inst.verdict.kind == UNDEC_FORALL_EXISTS
    assert "uniformize" in {s.name for s in inst.trace.steps}
    # the witness is fixed up front, so a found model is still a real model
    res = solve_at_bounds(inst, 1, 1)
    assert res.status == "sat"


def test_probe_universal_added_for_pure_existential():
    inst = prepare(spec("exists e : trace . G (o[e])"))
    assert inst.exist_vars == ("e",)
    assert inst.universal_vars == ("pi__0",)
    assert "probe" in {s.name for s in inst.trace.steps}
    assert solve_at_bounds(inst, 1, 1).status == "sat"


def test_unread_universal_copy_costs_nothing():
    # the copies are the ones the checked body reads: p2 adds no factor n
    two = prepare(spec("forall p1 : trace . forall p2 : trace . G (i[p1] -> X o[p1])"))
    one = prepare(spec("forall p1 : trace . G (i[p1] -> X o[p1])"))
    assert two.universal_vars == ("p1",)
    assert len(encode(two, 2, 2).clauses) == len(encode(one, 2, 2).clauses)


def test_probe_replaces_every_unread_universal_copy():
    inst = prepare(spec("exists e : trace . forall p1 : trace . forall p2 : trace . G F i[e]"))
    assert inst.universal_vars == ("pi__0",)
    assert "probe" in {s.name for s in inst.trace.steps}


def test_classification_recorded():
    inst = prepare(spec(ALWAYS))
    assert inst.verdict.kind == SINGLE_UNIVERSAL


def test_lambda_override_caps_encoding():
    # every automaton state's counter runs to the bound of its SCC
    arb = prepare(gen_arbiter(3, {1}))
    full = encode(arb, 2, 1).var_maps["lam_of"]
    scc_of, _ = arb.nba.sccs
    bounds = synth._scc_bounds(arb, 2, 1)
    assert full == [bounds[c] if c >= 0 else 0 for c in scc_of]
    assert max(full) == 2


def _accepting_sccs(nba) -> list:
    """SCCs of the automaton that have a cycle and an accepting state."""
    succ: dict = {}
    for s, _, d in nba.transitions:
        succ.setdefault(s, []).append(d)
    out = []
    for comp in tarjan_sccs(nba.n_states, succ):
        cyclic = len(comp) > 1 or comp[0] in succ.get(comp[0], ())
        if cyclic and set(comp) & nba.accepting:
            out.append(set(comp))
    return out


def test_counters_are_scc_local():
    inst = prepare(gen_arbiter(3, {1}))
    n, m = 3, 2
    problem = encode(inst, n, m)
    assert problem.lambda_max == 3
    # one counter of height n^k * m * |F & C| per product node took 4,604
    # clauses and 324 counter variables; projected ones take 2,794 and 63,
    # besides one state_order clause per system state above 0
    vm = problem.var_maps
    assert vm["clauses_by_family"]["state_order"] == n - 1
    assert len(problem.clauses) - vm["clauses_by_family"]["state_order"] <= 2_794
    assert vm["counter_vars"] <= 63
    starts = vm["counters"]
    counted = set().union(*_accepting_sccs(inst.nba))
    assert counted
    scc_of, _ = inst.nba.sccs
    # every node of a counted automaton state has a counter, and no other node
    nodes_of = {q: n ** len(copies) * (m if gen else 1) for q, (copies, gen) in enumerate(inst.state_reads)}
    assert {q for q, _, _ in starts} == counted
    assert all(sum(key[0] == q for key in starts) == nodes_of[q] for q in counted)
    owners: dict = {}
    for (q, sv, e), ls in starts.items():
        state = dict(zip(inst.state_reads[q][0], sv))
        assert (e is None) == (not inst.state_reads[q][1])
        copies, gen = inst.scc_reads[scc_of[q]]
        read = (q, tuple(state[v] for v in copies), e if gen else None)
        owners.setdefault(ls, set()).add(read)
    # nodes share a counter exactly when they agree on what their SCC reads
    assert all(len(reads) == 1 for reads in owners.values())
    assert len({r for reads in owners.values() for r in reads}) == len(owners)
    # the shared counters tile the counter variables, each at its SCC's height
    ls_sorted = sorted(owners)
    heights = [vm["lam_of"][next(iter(owners[ls]))[0]] for ls in ls_sorted]
    assert all(a + h == b for a, h, b in zip(ls_sorted, heights, ls_sorted[1:]))
    assert sum(heights) == vm["counter_vars"]


def _scc_reads_from_transitions(inst) -> dict:
    """Each accepting SCC, as a set of states, and what the guards of its inner
    edges read: the universal copies with an output atom there, and whether
    an atom of an existential copy appears."""
    out = {}
    for comp in _accepting_sccs(inst.nba):
        copies, gen = set(), False
        for q, g, q2 in inst.nba.transitions:
            if q in comp and q2 in comp:
                for sig, _ in g:
                    prop, copy = split_atom(sig)
                    gen |= copy in inst.exist_vars
                    if copy in inst.universal_vars and prop in inst.outputs:
                        copies.add(copy)
        out[frozenset(comp)] = (copies, gen)
    return out


def _read_set_docs() -> list:
    docs = _specs_in_this_module() + [spec(ARBITER_K2_3, inputs="r1, r2, r3", outputs="g1, g2, g3")]
    docs += [spec(text) for text, _ in TWO_COMPONENT_READS]
    docs += [gen_arbiter(k, {1}, full) for k, full in ((3, True), (4, False))]
    return docs


def test_scc_reads_match_the_transitions():
    for doc in _read_set_docs():
        inst = prepare(doc)
        scc_of, _ = inst.nba.sccs
        want = _scc_reads_from_transitions(inst)
        assert len(inst.scc_reads) == len(want), print_formula(doc.formula)
        for comp, (copies, gen) in want.items():
            (c,) = {scc_of[q] for q in comp}
            assert inst.scc_reads[c] == (tuple(v for v in inst.universal_vars if v in copies), gen)
    k2 = prepare(spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"))
    assert sorted(k2.scc_reads) == [((), False)] * 2 + [(("p1",), False)] * 2
    arb3 = prepare(gen_arbiter(3, {1}))
    assert sorted(arb3.scc_reads) == [((), False), ((), True), ((), True)] + [(("pi",), False)] * 6
    for text, kind in TWO_COMPONENT_READS:
        inst = prepare(spec(text))
        assert max(len(copies) + gen for copies, gen in inst.scc_reads) == 2
        assert encode(inst, 2, 2).var_maps["counter_vars_by_kind"][kind] > 0


def _state_reads_from_transitions(inst) -> list:
    """R(q) and G(q) of each automaton state q, by a search of its own: the
    universal copies with an output atom in the guard of some edge whose
    source q reaches (q included), and whether an atom of an existential
    copy appears there."""
    succ: dict = {}
    for q, _, q2 in inst.nba.transitions:
        succ.setdefault(q, set()).add(q2)
    out = []
    for q in range(inst.nba.n_states):
        seen, todo = {q}, [q]
        while todo:
            for q2 in succ.get(todo.pop(), ()):
                if q2 not in seen:
                    seen.add(q2)
                    todo.append(q2)
        copies, gen = set(), False
        for src, g, _ in inst.nba.transitions:
            if src in seen:
                for sig, _ in g:
                    prop, copy = split_atom(sig)
                    gen |= copy in inst.exist_vars
                    if copy in inst.universal_vars and prop in inst.outputs:
                        copies.add(copy)
        out.append((copies, gen))
    return out


def test_state_reads_match_the_transitions():
    for doc in _read_set_docs():
        inst = prepare(doc)
        want = _state_reads_from_transitions(inst)
        got = inst.state_reads
        assert got == tuple((tuple(v for v in inst.universal_vars if v in c), g) for c, g in want)
        # closed forward: taking an edge never adds a read
        for q, _, q2 in inst.nba.transitions:
            assert set(got[q2][0]) <= set(got[q][0]) and got[q2][1] <= got[q][1]
        # the counters' projection is a function of every node's projection
        scc_of, _ = inst.nba.sccs
        for q, c in enumerate(scc_of):
            if c >= 0:
                copies, gen = inst.scc_reads[c]
                assert set(copies) <= set(got[q][0]) and gen <= got[q][1]
    # 12 of ARBITER_K2_3's 16 automaton states read only p1 from there on
    k23 = prepare(spec(ARBITER_K2_3, inputs="r1, r2, r3", outputs="g1, g2, g3"))
    assert k23.state_reads.count((("p1",), False)) == 12 and len(k23.state_reads) == 16


def test_projected_product_sizes():
    # a node keeps only what its automaton state's future reads; keeping
    # every copy at every node took 10,360 and 37,339 clauses here
    k2 = prepare(spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"))
    k23 = prepare(spec(ARBITER_K2_3, inputs="r1, r2, r3", outputs="g1, g2, g3"))
    assert len(encode(k2, 4, 1).clauses) <= 2_239
    assert len(encode(k23, 5, 1).clauses) <= 6_427


def test_reach_nodes_count_the_projected_product():
    # one reach variable per (q, states of R(q), generator state if G(q))
    k2 = prepare(spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"))
    demo = prepare(spec(DEMO, inputs="r1, r2", outputs="g1, g2"))
    for inst, n, m in ((k2, 3, 1), (demo, 2, 2)):
        reads = _state_reads_from_transitions(inst)
        want = sum(n ** len(copies) * (m if gen else 1) for copies, gen in reads)
        assert encode(inst, n, m).var_maps["reach_nodes"] == want
        assert solve_at_bounds(inst, n, m).stats["reach_nodes"] == want
        assert want < inst.nba.n_states * n**inst.k * m
    # a k=2 point, and a point whose generator some states read
    assert k2.k == 2 and any(gen for _, gen in reads)


def test_dimacs_emission_parses_back():
    problem = encode(prepare(spec(ALWAYS)), 2, 1)
    lines = emit_dimacs(problem.nvars, problem.clauses, problem.comments).splitlines()
    body = [l for l in lines if not l.startswith("c ")]
    assert body[0] == f"p cnf {problem.nvars} {len(problem.clauses)}"
    assert all(l.endswith(" 0") for l in body[1:])
    assert [[int(x) for x in l.split()[:-1]] for l in body[1:]] == problem.clauses


def test_timeout_is_solver_failure():
    # the (2,1) row of the two-client arbiter is unsat only after conflicts
    problem = encode(prepare(gen_arbiter(2, {1})), 2, 1)
    with pytest.raises(SolverFailure, match=r"timed out after 1e-09s at \(2,1\)$"):
        solve(problem, timeout=1e-9)


def test_failed_model_check_names_its_point(monkeypatch):
    monkeypatch.setattr(synth, "mc_exists_forall", lambda *args: (False, []))
    with pytest.raises(EncoderSoundnessError, match=r"SAT model at \(1,1\) fails containment"):
        solve(encode(prepare(spec(ALWAYS)), 1, 1))


def test_knowledge_operator_through_prepare():
    # an agent who sees i knows o: on a deterministic system the inputs so far decide o
    doc = spec("forall pi : trace . G (K{i}[pi] (o[pi]) | K{i}[pi] (!o[pi]))")
    inst = prepare(doc)
    assert [s.name for s in inst.trace.steps] == [
        "nnf", "eliminate_knowledge", "to_hyperltl", "uniformize", "consistency",
    ]
    res, attempts = search(inst, 2, 2)
    assert res.status == "sat" and (res.n, res.m) == (1, 1)
    assert [(a.n, a.m) for a in attempts] == [(1, 1)]
    assert eval_formula(doc.formula, system_traces(res.system, 2, 2))


def test_default_path_starts_no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver must stay in process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(tempfile, "NamedTemporaryFile", refuse)
    res = solve_at_bounds(prepare(gen_arbiter(2, {1})), 2, 2)
    assert res.status == "sat" and res.system is not None


def _count_encodes(monkeypatch) -> list:
    calls = []
    real = synth.encode

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(synth, "encode", counting)
    return calls


ARBITER_K2 = """
forall p1 : trace . forall p2 : trace .
  G !(g1[p1] & g2[p1])
  & G (r1[p1] -> F g1[p1]) & G (r2[p1] -> F g2[p1])
  & (!g1[p1] W r1[p1]) & (!g2[p1] W r2[p1])
  & (G (r1[p1] <-> r1[p2]) -> G (g1[p1] <-> g1[p2]))
"""
# ARBITER_K2 widened to three clients (a 16-state automaton); as there, the
# accepting SCC of the information-flow conjunct reads inputs only
ARBITER_K2_3 = """
forall p1 : trace . forall p2 : trace .
  G !(g1[p1] & g2[p1]) & G !(g1[p1] & g3[p1]) & G !(g2[p1] & g3[p1])
  & G (r1[p1] -> F g1[p1]) & G (r2[p1] -> F g2[p1]) & G (r3[p1] -> F g3[p1])
  & (!g1[p1] W r1[p1]) & (!g2[p1] W r2[p1]) & (!g3[p1] W r3[p1])
  & (G (r1[p1] <-> r1[p2]) -> G (g1[p1] <-> g1[p2]))
"""


@pytest.mark.parametrize(
    "doc, n, m, status, lam",
    [
        (spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"), 3, 1, "unsat", 3),
        (spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"), 4, 1, "sat", 4),
        (gen_arbiter(2, {1}), 2, 2, "sat", 2),
    ],
    ids=["arbiter-k2-3-1", "arbiter-k2-4-1", "arbiter-2-prompt-2-2"],
)
def test_bound_point_encodes_once_at_sufficient_lambda(monkeypatch, doc, n, m, status, lam):
    calls = _count_encodes(monkeypatch)
    inst = prepare(doc)
    res = solve_at_bounds(inst, n, m)
    assert res.status == status
    assert res.lambda_max == max(synth._scc_bounds(inst, n, m)) == lam
    assert calls == [(n, m)]


# tiny one-input, one-output specs for the brute-force realizability oracle
ORACLE_SPECS = (
    INSTANT_ECHO,
    "forall pi : trace . G (i[pi] -> (X (o[pi])))",
    # unrealizable; the negation's automaton has a 3-state accepting SCC
    "forall pi : trace . G F o[pi] & (F G !i[pi] | F G !o[pi])",
    # unsat at one state, sat from two on; 2-state accepting SCCs
    "forall pi : trace . (G F i[pi]) -> G F o[pi] & G F !o[pi]",
    # sat from three states on, and only with counters above one
    "forall pi : trace . G F (o[pi] & X o[pi]) & G F !o[pi]",
    # sat at one state, where the negation's run meets both accepting states
    # of its SCC before it dies: a counter one below the sufficient height
    # n * |F & C| = 2 finds no model
    "forall pi : trace . F G X X o[pi]",
)


def _moore_machines(n: int):
    """Every Moore machine over input i and output o with n states."""
    labels = (frozenset(), frozenset({"o"}))
    for lab in itertools.product(labels, repeat=n):
        for flat in itertools.product(range(n), repeat=2 * n):
            delta = tuple(flat[2 * s : 2 * s + 2] for s in range(n))
            yield MooreSystem(("i",), ("o",), lab, delta, 0)


def test_verdicts_agree_with_brute_force_machines():
    insts = [prepare(spec(text)) for text in ORACLE_SPECS]
    # the SCC-local cut is exercised only by a multi-state accepting SCC
    assert any(len(c) > 1 for inst in insts for c in _accepting_sccs(inst.nba))
    for text, inst in zip(ORACLE_SPECS, insts):
        for n in (1, 2, 3):
            some = any(mc_exists_forall(M, None, inst.core)[0] for M in _moore_machines(n))
            assert (solve_at_bounds(inst, n, 1).status == "sat") == some, (text, n)


# SAT from m = 4 on (three !i steps, then a loop through i), and only with
# counters that grow with m: the per-SCC bound needs its factor m
LATE_I = "!i[e] & X !i[e] & X X !i[e] & G F i[e]"

# one existential copy e, witnessed by a lasso generator: (body, SAT points of
# the grid n <= 2, m <= 2 plus (1, 3))
GENERATOR_ORACLE_SPECS = (
    # e's output must alternate and equal every branch's: needs two states each
    ("G F o[e] & G F !o[e] & G (o[pi] <-> o[e])", {(2, 2)}),
    ("G (o[pi] <-> i[e])", {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}),
    # a three-state generator can hold i[e] twice in a row; two states cannot
    ("G F (i[e] & X i[e]) & G F !i[e] & G (i[pi] -> X o[pi])", {(1, 3)}),
    (LATE_I, set()),
)


def _generators(m: int):
    """Every generator over the signals i@e and o@e with m states."""
    sigs = ("i@e", "o@e")
    labels = [frozenset(c) for r in range(3) for c in itertools.combinations(sigs, r)]
    for lab in itertools.product(labels, repeat=m):
        for nxt in itertools.product(range(m), repeat=m):
            yield ExistGenerator(sigs, lab, nxt, 0)


def test_verdicts_agree_with_brute_force_generators():
    points = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
    for body, sat_points in GENERATOR_ORACLE_SPECS:
        inst = prepare(spec(f"exists e : trace . forall pi : trace . {body}"))
        assert inst.exist_vars == ("e",)
        found = set()
        for n, m in points:
            some = any(
                mc_exists_forall(M, E, inst.core)[0]
                for M in _moore_machines(n)
                for E in _generators(m)
            )
            assert (solve_at_bounds(inst, n, m).status == "sat") == some, (body, n, m)
            if some:
                found.add((n, m))
        assert found == sat_points, body
    inst = prepare(spec(f"exists e : trace . forall pi : trace . {LATE_I}"))
    assert solve_at_bounds(inst, 1, 4).status == "sat"


def test_generator_is_a_lasso():
    # states run 0 -> 1 -> ... -> m-1 and only the last one jumps back; the
    # second spec at (1, 3) and LATE_I at (1, 4) also have models off this
    # shape, such as the successor tables (2, 2, 2) and (3, 3, 1, 2)
    points = [(body, n, m) for body, sat in GENERATOR_ORACLE_SPECS for n, m in sorted(sat)]
    insts = [
        (prepare(spec(f"exists e : trace . forall pi : trace . {body}")), n, m)
        for body, n, m in points + [(LATE_I, 1, 4)]
    ]
    insts.append((prepare(gen_arbiter(2, {1})), 2, 2))
    for inst, n, m in insts:
        res = solve_at_bounds(inst, n, m)
        assert res.status == "sat", (n, m)
        assert res.generator.state_count == m
        assert res.generator.next_state[: m - 1] == tuple(range(1, m)), (n, m)


def test_consistency_names_one_universal_copy():
    # two universal copies: the encoder and the verifier conjoin consistency
    # with the same one, so they check one formula and build one automaton
    ltl_to_nba.cache_clear()
    text = (
        "exists e : trace . forall p1 : trace . forall p2 : trace . "
        "G (o[p1] <-> o[e]) & G (o[p2] <-> o[e])"
    )
    res = solve_at_bounds(prepare(spec(text)), 1, 1)
    assert res.status == "sat" and res.system is not None
    assert ltl_to_nba.cache_info().misses == 1


def test_sat_row_and_its_verification_build_one_automaton():
    ltl_to_nba.cache_clear()
    res = solve_at_bounds(prepare(gen_arbiter(2, {1})), 2, 2)
    assert res.status == "sat" and res.system is not None
    # the verifier's formula equals the instance's negated body
    assert ltl_to_nba.cache_info().misses == 1


def test_search_returns_first_sat_point():
    inst = prepare(spec("forall pi : trace . G (i[pi] -> (X (o[pi])))"))
    res, attempts = search(inst, 3, 3)
    assert res is not None and res.status == "sat"
    # no existential copies, so the witness bound stays pinned at one
    assert all(a.m == 1 for a in attempts)
    assert attempts[-1] is res


def test_search_exhaustion_reports_attempts():
    inst = prepare(spec(CONTRADICTION))
    res, attempts = search(inst, 2, 2)
    assert res is None
    assert [(a.n, a.m) for a in attempts] == [(1, 1), (2, 1)]
    assert all(a.status == "unsat" for a in attempts)


def test_search_rejects_bad_bounds():
    inst = prepare(spec(ALWAYS))
    with pytest.raises(SpecError):
        search(inst, 0, 1)


def test_sat_monotonic_in_system_size():
    inst = prepare(spec("forall pi : trace . G (i[pi] -> (X (o[pi])))"))
    assert solve_at_bounds(inst, 2, 1).status == "sat"
    assert solve_at_bounds(inst, 3, 1).status == "sat"


def test_encoder_rejects_bounds_below_one():
    inst = prepare(spec(ALWAYS))
    for n, m in ((0, 1), (1, 0)):
        with pytest.raises(SpecError, match="at least 1"):
            encode(inst, n, m)


def test_encoder_rejects_atom_bound_to_no_copy():
    inst = prepare(spec(ALWAYS))
    # the body reads copy zz, which no quantifier binds; the cached automaton
    # is built from the replaced body
    stray = dataclasses.replace(inst, body=And(inst.body, TraceAtom("o", "zz")))
    with pytest.raises(SpecError, match="bound to no copy"):
        encode(stray, 1, 1)


# README demo: a quantified proposition, so an existential lasso generator
DEMO = """
exists q : prop . forall pi : trace .
  G !(g1[pi] & g2[pi])
  & (G (r2[pi] -> F g2[pi])
  & (G F q & (G F !q
  & G (r1[pi] -> (q -> q U (!q) U g1[pi]) & (!q -> (!q) U q U g1[pi])))))
"""
TWO_UNIVERSAL = (
    "exists e : trace . forall p1 : trace . forall p2 : trace . "
    "G (o[p1] <-> o[e]) & G (o[p2] <-> o[e])"
)


def _encoding_points():
    for (k, full), (n, m), *_ in TABLE_SOLVES:
        yield f"arbiter-{k}{'-full' if full else ''}", gen_arbiter(k, {1}, full), n, m
    yield "arbiter-4", gen_arbiter(4, {1}), 4, 1
    demo = spec(DEMO, inputs="r1, r2", outputs="g1, g2")
    for n, m in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2)):
        yield "demo", demo, n, m
    k2 = spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2")
    for n in (1, 2, 3, 4):
        yield "arbiter-k2", k2, n, 1
    yield "two-universal", spec(TWO_UNIVERSAL), 1, 1


# SHA-1 of the DIMACS text and of repr(var_maps) at each point
ENCODING_DIGESTS = {
    ('arbiter-2', 2, 1): (
        "dbaf1021227a268e22e7065d300e17a58bc02011",
        "8f999471720069b682a8b6eb027a674a8aa640e9",
    ),
    ('arbiter-2', 2, 2): (
        "d1f0a059e137afa9e199c61008f93906acab2877",
        "35643d9fddd50edb38d34202452a13fd081e2fe6",
    ),
    ('arbiter-2-full', 3, 1): (
        "eb10cba9ebd9050d6584d94aff6ace70876234bf",
        "b314f44d9202da0214fccf2820b6fb6eb6184fb1",
    ),
    ('arbiter-2-full', 3, 2): (
        "241ad510c84ec5eac1d6a53698e2118e91d86041",
        "1ac6aac0bfd3e707ba8c246b610f7983827ca2ef",
    ),
    ('arbiter-2-full', 4, 2): (
        "6b64df6d74f04188efc1c0c86fb6ba83fea0e217",
        "62f87c256bcb96093683b24d59c9d0bdb2968ed5",
    ),
    ('arbiter-3', 3, 1): (
        "d296e83daf0f7e140446cbee84427708dc277c55",
        "5eb88d15309a18cf8121281b8fcefc1a5dade2e8",
    ),
    ('arbiter-3', 3, 2): (
        "90af59925d24b9e983026869b665482501a493ff",
        "28de287d036c0d7fe13f08cb5b0bd73f7402998f",
    ),
    ('arbiter-3', 4, 2): (
        "3a15e0da41df09f97419ef7ce9a4f9f597c41bdd",
        "380808bed26c330019133e4632bc097f9a211bc6",
    ),
    ('arbiter-4', 4, 1): (
        "7be63d984b9deade6722aad93277ae313df77d83",
        "8c7f8fa376af3c705842ea76e2a0716d98b16519",
    ),
    ('demo', 1, 1): (
        "acc2d82b75329fc90a12d4690505aac2740a5eb6",
        "1b555054b1fd32d052d9fa5557c634d5161cc44b",
    ),
    ('demo', 1, 2): (
        "12dd5247a95721a418992eaccc983f358eb30f99",
        "6c352a9378329f19bf56e719bfe174dacee59ee9",
    ),
    ('demo', 2, 1): (
        "dbaf1021227a268e22e7065d300e17a58bc02011",
        "8f999471720069b682a8b6eb027a674a8aa640e9",
    ),
    ('demo', 1, 3): (
        "338826bc56dacf8f5e65d9519dd346bf9e598ba8",
        "e054430cad61e8ad16b281410417d1924b6a25d0",
    ),
    ('demo', 2, 2): (
        "d1f0a059e137afa9e199c61008f93906acab2877",
        "35643d9fddd50edb38d34202452a13fd081e2fe6",
    ),
    ('arbiter-k2', 1, 1): (
        "663e70c517723c01c07c19fc75b6475a26d1d04f",
        "4a17e26cd9a11649b04faf674545953e5bed6409",
    ),
    ('arbiter-k2', 2, 1): (
        "3ca569e0215fbf49a9c93c20dfa0abaa28c5a616",
        "27a7c4956850e201f7018e5a198a1d7d509bcba1",
    ),
    ('arbiter-k2', 3, 1): (
        "7dcc05935eaf04079981ce1248d1265dfdab15ec",
        "08d77edede71357e41ba67f7856ea1de3c865646",
    ),
    ('arbiter-k2', 4, 1): (
        "0a15b2d5ecf29c9f701b4121e5bf113416e743a3",
        "d8652d4b1e1a17ae5d483e552535131db5041598",
    ),
    ('two-universal', 1, 1): (
        "22dc6909c75e12a8d51657989281d754622e9884",
        "a0738f9aa6a61c824eae10e3c0376e42dcbc8d41",
    ),
}


def test_encodings_keep_their_bytes():
    # a faster encoder must allocate the same variables and emit the same
    # clauses in the same order
    got = {}
    for name, doc, n, m in _encoding_points():
        problem = encode(prepare(doc), n, m)
        cnf = emit_dimacs(problem.nvars, problem.clauses, problem.comments)
        got[(name, n, m)] = (
            hashlib.sha1(cnf.encode()).hexdigest(),
            hashlib.sha1(repr(problem.var_maps).encode()).hexdigest(),
        )
    assert got == ENCODING_DIGESTS


def test_clause_families_sum_to_the_clauses():
    for name, doc, n, m in _encoding_points():
        problem = encode(prepare(doc), n, m)
        families = problem.var_maps["clauses_by_family"]
        assert tuple(families) == CLAUSE_FAMILIES
        assert sum(families.values()) == len(problem.clauses), (name, n, m)
        tautologies = [c for c in problem.clauses if any(-lit in c for lit in c)]
        assert tautologies == [], (name, n, m)
        step = problem.var_maps["step"]
        assert families["step_definitions"] == sum(len(F) for _, F, _ in step), (name, n, m)
    inst = prepare(gen_arbiter(2, {1}))
    res, problem = solve_at_bounds(inst, 2, 1), encode(inst, 2, 1)
    assert res.stats["clauses_by_family"] == problem.var_maps["clauses_by_family"]
    assert res.stats["step_vars"] == len(problem.var_maps["step"]) > 0


def _joint_inputs_admitted(inst, guard) -> set:
    """Joint inputs (one valuation index per universal copy) under which the
    guard's input atoms hold, evaluated on the whole joint letter."""
    in_vals = all_valuations(inst.inputs)
    atoms = [(split_atom(sig), sig, val) for sig, val in guard]
    read = [(sig, val) for (a, copy), sig, val in atoms if a in inst.inputs and copy in inst.universal_vars]
    out = set()
    for ivv in itertools.product(range(len(in_vals)), repeat=inst.k):
        letter = {flatten_atom(a, v) for v, iv in zip(inst.universal_vars, ivv) for a in in_vals[iv]}
        if all((sig in letter) == val for sig, val in read):
            out.add(ivv)
    return out


def test_guards_admit_the_product_of_their_per_copy_inputs():
    # one step literal per copy replaces a clause per joint input only
    # because a guard admits exactly the product of its per-copy input sets
    docs = [gen_arbiter(k, {1}, full) for k, full in ((2, False), (2, True), (3, False), (4, False))]
    docs += [spec(text, inputs="r1, r2", outputs="g1, g2") for text in (DEMO, ARBITER_K2)]
    ks = set()
    for doc in docs:
        inst = prepare(doc)
        ks.add(inst.k)
        guards = inst.guards
        for edges, compiled in zip(inst.nba.edges, guards):
            joint = [(_joint_inputs_admitted(inst, g), q2) for g, q2 in edges]
            product = [(set(itertools.product(*a)), q2) for a, _, q2, _ in compiled]
            assert product == [j for j in joint if j[0]]
            assert all(len(a) == inst.k for a, *_ in compiled)
    assert ks == {1, 2}


def test_singleton_input_sets_make_no_step_variable():
    # the guard i[pi] admits one valuation of pi's inputs: its step is d itself
    inst = prepare(spec("forall pi : trace . G (i[pi] -> X o[pi])"))
    guards = inst.guards
    assert any(len(F) == 1 for edges in guards for admitted, *_ in edges for F in admitted)
    problem = encode(inst, 2, 1)
    vm = problem.var_maps
    assert all(len(F) > 1 for _, F, _ in vm["step"])
    d_lits = {-x for plane in vm["d"] for row in plane for x in row}
    transitions = problem.clauses[-vm["clauses_by_family"]["transitions"]:]
    assert any(d_lits & set(cl) for cl in transitions)
    for name, doc, n, m in _encoding_points():
        assert all(len(F) > 1 for _, F, _ in encode(prepare(doc), n, m).var_maps["step"]), name


def _without_family(problem, family: str):
    """`problem` with the clauses of one of `CLAUSE_FAMILIES` cut out."""
    sizes = problem.var_maps["clauses_by_family"]
    names = list(sizes)
    start = sum(sizes[f] for f in names[: names.index(family)])
    kept = problem.clauses[:start] + problem.clauses[start + sizes[family] :]
    return dataclasses.replace(problem, clauses=kept)


def test_decode_rejects_a_state_entered_only_from_above():
    # a CNF that lost its state_order clauses admits a model whose state 1 is
    # entered from no lower state; decode refuses it instead of reporting it
    problem = encode(prepare(spec(ALWAYS)), 2, 1)
    assert problem.var_maps["clauses_by_family"]["state_order"] == 1
    d = problem.var_maps["d"]
    not_from_0 = [[-d[0][iv][1]] for iv in range(len(d[0]))]
    assert solve_clauses(problem.nvars, problem.clauses + not_from_0)[0] is False
    cut = _without_family(problem, "state_order")
    with pytest.raises(EncoderSoundnessError, match=r"state 1 is entered from no state below it at \(2,1\)"):
        solve(dataclasses.replace(cut, clauses=cut.clauses + not_from_0))


# what refuses the model of an UNSAT point's CNF with one clause family cut
# out: a match for the EncoderSoundnessError that decode or the model check
# raises, or None when the point stays unsat
WITHOUT_FAMILY = {
    "totality": r"transition \(\d,\d\) decoded to \[\]",
    # state_order decides no verdict; it stays for the arbiter-table speed-up
    # recorded in BENCH_22.json
    "state_order": None,
    "guard_conjunctions": "fails containment verification",
    "step_definitions": "fails containment verification",
    "counter_steps": "fails containment verification",
    "transitions": "fails containment verification",
}


def test_every_clause_family_is_needed():
    # arbiter-2-full-prompt has no machine at (3,2), and its refutation reads
    # the system, so a CNF that loses a needed family there has a model that
    # the pipeline must refuse; a new family must say here what its loss
    # lets through
    problem = encode(prepare(gen_arbiter(2, {1}, True)), 3, 2)
    assert solve(problem).status == "unsat"
    assert tuple(WITHOUT_FAMILY) == CLAUSE_FAMILIES
    for family in CLAUSE_FAMILIES:
        cut = _without_family(problem, family)
        if WITHOUT_FAMILY[family] is None:
            assert solve(cut).status == "unsat", family
        else:
            with pytest.raises(EncoderSoundnessError, match=WITHOUT_FAMILY[family]):
                solve(cut)


def _bfs_order(M: MooreSystem) -> list:
    """M's reachable states in BFS order from its initial state."""
    order = [M.initial]
    for s in order:
        order += [t for t in dict.fromkeys(M.delta[s]) if t not in order]
    return order


def _bfs_padded(M: MooreSystem) -> MooreSystem:
    """M renumbered in BFS order, then padded back to its size: each index j
    left over becomes a copy of t = delta(j-1, 0), and that one transition is
    pointed at the copy (encode's exactness argument)."""
    order = _bfs_order(M)
    index = {s: i for i, s in enumerate(order)}
    labels = [M.labels[s] for s in order]
    delta = [[index[t] for t in M.delta[s]] for s in order]
    for j in range(len(order), M.state_count):
        t = delta[j - 1][0]
        labels.append(labels[t])
        delta.append(list(delta[t]))
        delta[j - 1][0] = j
    return MooreSystem(M.inputs, M.outputs, tuple(labels), tuple(map(tuple, delta)), 0)


def _with_junk_states(M: MooreSystem, extra: int, rng: random.Random) -> MooreSystem:
    """M with `extra` unreachable states added and all states shuffled."""
    n, width = M.state_count, len(M.delta[0])
    labels = list(M.labels) + [frozenset(rng.sample(M.outputs, rng.randrange(3))) for _ in range(extra)]
    delta = [list(row) for row in M.delta] + [[rng.randrange(n + extra) for _ in range(width)] for _ in range(extra)]
    perm = list(range(n + extra))
    rng.shuffle(perm)
    new_labels, new_delta = [None] * len(perm), [None] * len(perm)
    for s, p in enumerate(perm):
        new_labels[p], new_delta[p] = labels[s], tuple(perm[t] for t in delta[s])
    return MooreSystem(M.inputs, M.outputs, tuple(new_labels), tuple(new_delta), perm[M.initial])


def test_state_order_padding_keeps_every_branch():
    # every machine has a renumbering of the same size whose states j >= 1
    # are each entered from a state below j, with the same verdict
    rng = random.Random(22)
    cases = []
    for full, (n, m) in ((False, (2, 2)), (True, (4, 2))):
        doc = gen_arbiter(2, {1}, full)
        inst = prepare(doc)
        good = solve_at_bounds(inst, n, m)
        sigs, width = good.generator.signals, len(good.system.delta[0])
        gens = [good.generator, ExistGenerator(sigs, (frozenset(),), (0,), 0)]
        machines = [_with_junk_states(good.system, extra, rng) for extra in range(6 - n)]
        for size in range(1, 6):
            for _ in range(8):
                labels = tuple(frozenset(rng.sample(inst.outputs, rng.randrange(3))) for _ in range(size))
                delta = tuple(tuple(rng.randrange(size) for _ in range(width)) for _ in range(size))
                machines.append(MooreSystem(inst.inputs, inst.outputs, labels, delta, rng.randrange(size)))
        cases += [(doc, inst, M, E) for M in machines for E in gens]
    verdicts, unreachable = set(), 0
    for doc, inst, M, E in cases:
        P = _bfs_padded(M)
        assert P.state_count == M.state_count
        assert all(any(j in P.delta[i] for i in range(j)) for j in range(1, P.state_count)), M
        ok = mc_exists_forall(M, E, inst.core)[0]
        assert mc_exists_forall(P, E, inst.core)[0] == ok, M
        verdicts.add(ok)
        unreachable += len(_bfs_order(M)) < M.state_count
        if M.state_count <= 2:
            # the reference evaluator sees the same traces, and holds where mc does
            T = system_traces(P, 1, 1)
            assert system_traces(M, 1, 1) == T, M
            assert not ok or eval_formula(doc.formula, T, prop_bound=3), M
    assert verdicts == {True, False}
    assert unreachable > 0


# ---------------------------------------------------------------------------
# the textbook encoding (tests/_reference_encoding.py) as a differential oracle


# accepting SCCs that read two components: both system copies (the first two,
# with a counter of height n^2) and the system copy with the generator (the third)
TWO_COMPONENT_READS = (
    ("forall p1 : trace . forall p2 : trace . F G (o[p1] <-> o[p2]) & G F o[p1] & G F !o[p1]", "system"),
    ("forall p1 : trace . forall p2 : trace . (G (i[p1] <-> i[p2])) -> G F (o[p1] & o[p2] & X !o[p1])", "system"),
    ("exists e : trace . forall pi : trace . G F (o[pi] & i[e]) & G F (!o[pi] & !i[e])", "mixed"),
)


def _reference_points():
    """Default table rows and their (n+1, m) points, among them the bench's
    declared points (4,2) of arbiter-2-full and arbiter-3, criterion 9's
    monotonicity pads of arbiter-2, arbiter-4 (4,1), the points synth-search
    visits, the three-client ARBITER_K2_3 at (2,1) and (3,1), the brute-force
    oracles' points (among them LATE_I at (1,4), where the counter bound
    needs its factor m), two-universal (1,1), a spec whose generator must
    loop in its last state, and the TWO_COMPONENT_READS specs.

    The pads of arbiter-2-full, (5,2) and (4,3), and of arbiter-3, (4,3) and
    (3,4), take the textbook encoding 3.5-7 s each and are left out."""
    rows = {(2, False): ((2, 1), (2, 2)), (2, True): ((3, 1), (3, 2)), (3, False): ((3, 1), (3, 2))}
    pads = {(2, False): ((3, 2), (2, 3)), (2, True): (), (3, False): ()}
    for (k, full), points in rows.items():
        retries = tuple((n + 1, m) for n, m in points)
        for n, m in dict.fromkeys(points + retries + pads[(k, full)]):
            yield f"arbiter-{k}{'-full' if full else ''}", gen_arbiter(k, {1}, full), n, m
    yield "arbiter-4", gen_arbiter(4, {1}), 4, 1
    demo = spec(DEMO, inputs="r1, r2", outputs="g1, g2")
    for n, m in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2)):
        yield "demo", demo, n, m
    k2 = spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2")
    for n in (1, 2, 3, 4):
        yield "arbiter-k2", k2, n, 1
    k2_3 = spec(ARBITER_K2_3, inputs="r1, r2, r3", outputs="g1, g2, g3")
    for n in (2, 3):
        yield "arbiter-k2-3", k2_3, n, 1
    for body in ORACLE_SPECS:
        for n in (1, 2, 3):
            yield body, spec(body), n, 1
    for body, _ in GENERATOR_ORACLE_SPECS:
        for n, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)) + ((1, 4),) * (body == LATE_I):
            yield body, spec(f"exists e : trace . forall pi : trace . {body}"), n, m
    yield "two-universal", spec(TWO_UNIVERSAL), 1, 1
    # a two-state generator must stay in its last state: needs the last loop-back
    for n, m in ((1, 1), (1, 2)):
        yield "stay-last", spec("exists e : trace . forall pi : trace . !i[e] & X G i[e]"), n, m
    for text, _ in TWO_COMPONENT_READS:
        doc = spec(text)
        for n, m in ((1, 1), (2, 1), (3, 1)) + ((1, 2), (2, 2), (1, 3)) * ("exists" in text):
            yield text, doc, n, m


def test_reference_encoding_agrees_at_table_pads_and_search_points():
    got, want = {}, {}
    for name, doc, n, m in _reference_points():
        inst = prepare(doc)
        got[(name, n, m)] = solve_at_bounds(inst, n, m).status
        want[(name, n, m)] = reference_verdict(inst, n, m)
    assert got == want
    assert len(got) == 79 and set(got.values()) == {"sat", "unsat"}


_DRAWN_PREFIXES = {
    "forall pi : trace . ": ("pi",),
    "forall p1 : trace . forall p2 : trace . ": ("p1", "p2"),
    "exists e : trace . forall pi : trace . ": ("e", "pi"),
}


@st.composite
def _drawn_specs(draw):
    prefix = draw(st.sampled_from(sorted(_DRAWN_PREFIXES)))
    atoms = [f"{a}[{c}]" for c in _DRAWN_PREFIXES[prefix] for a in "io"]

    def build(depth):
        op = draw(st.sampled_from(["atom", "!", "&", "|", "X", "F", "G", "U"] if depth else ["atom"]))
        if op == "atom":
            return draw(st.sampled_from(atoms))
        if op == "!":
            return f"!({build(depth - 1)})"
        if op in ("X", "F", "G"):
            return f"{op} ({build(depth - 1)})"
        return f"({build(depth - 1)}) {op} ({build(depth - 1)})"

    return prefix + build(3)


@given(_drawn_specs(), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_reference_encoding_agrees_on_drawn_specs(text, n, m):
    inst = prepare(spec(text))
    assert solve_at_bounds(inst, n, m).status == reference_verdict(inst, n, m), (text, n, m)


def _specs_in_this_module():
    bodies = [ALWAYS, CONTRADICTION, INSTANT_ECHO, TWO_UNIVERSAL, *ORACLE_SPECS]
    bodies += [f"exists e : trace . forall pi : trace . {b}" for b, _ in GENERATOR_ORACLE_SPECS]
    bodies += [
        "exists e : trace . forall pi : trace . G (o[pi] <-> o[e])",
        "exists q : prop . forall pi : trace . G (q -> o[pi])",
        "exists e : trace . G (o[e])",
        "forall p1 : trace . forall p2 : trace . G (i[p1] -> X o[p1])",
        "exists e : trace . forall p1 : trace . forall p2 : trace . G F i[e]",
    ]
    docs = [spec(b) for b in bodies]
    docs += [spec(t, inputs="r1, r2", outputs="g1, g2") for t in (ARBITER_K2, DEMO)]
    return docs + [gen_arbiter(2, {1}), gen_arbiter(2, {1}, True), gen_arbiter(3, {1})]


def test_encoder_and_checker_range_over_the_same_copies(monkeypatch):
    from hypersynth import mc

    seen = []
    real = mc.build_product

    def recording(M, trace_vars, nba, E=None):
        seen.append(list(trace_vars))
        return real(M, trace_vars, nba, E)

    monkeypatch.setattr(mc, "build_product", recording)
    for doc in _specs_in_this_module():
        inst = prepare(doc)
        M = MooreSystem(inst.inputs, inst.outputs, (frozenset(),), ((0,) * 2 ** len(inst.inputs),), 0)
        sigs = tuple(f"{a}@{e}" for e in inst.exist_vars for a in inst.inputs + inst.outputs)
        E = ExistGenerator(sigs, (frozenset(),), (0,), 0) if sigs else None
        seen.clear()
        mc_exists_forall(M, E, inst.core)
        assert seen == [list(inst.universal_vars)], print_formula(doc.formula)


def test_body_without_copies_checks_no_copy():
    M = MooreSystem(("i",), ("o",), (frozenset(),), ((0, 0),), 0)
    assert mc_exists_forall(M, None, FALSE) == (False, [])
    assert mc_exists_forall(M, None, TRUE) == (True, None)
