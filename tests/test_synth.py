"""End-to-end synthesis: prepare, encode, solve, search."""

import dataclasses
import hashlib
import itertools
import subprocess
import tempfile

import pytest

from hypersynth import synth
from hypersynth.automata import ltl_to_nba, tarjan_sccs
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
from hypersynth.machines import ExistGenerator, MooreSystem
from hypersynth.mc import mc_exists_forall
from hypersynth.sat import emit_dimacs
from hypersynth.synth import (
    SolverFailure,
    encode,
    prepare,
    search,
    solve,
    solve_at_bounds,
)
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
    problem = encode(inst, 3, 2)
    assert problem.lambda_max == 6
    # one global counter of height n^k * m * |F| = 54 per node took 118,765 clauses
    assert len(problem.clauses) <= 118_765 // 4
    vm = problem.var_maps
    starts = vm["l_start"]
    ends = starts[1:] + [starts[0] + vm["counter_vars"]]
    counted = set().union(*_accepting_sccs(inst.nba))
    Q = inst.nba.n_states
    assert any(q in counted for q in range(Q))
    for node, (a, b) in enumerate(zip(starts, ends)):
        if node % Q not in counted:
            assert a == b, node


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
    with pytest.raises(SolverFailure, match="timed out"):
        solve(problem, timeout=1e-9)


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


@pytest.mark.parametrize(
    "doc, n, m, status, lam",
    [
        (spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"), 3, 1, "unsat", 9),
        (spec(ARBITER_K2, inputs="r1, r2", outputs="g1, g2"), 4, 1, "sat", 16),
        (gen_arbiter(2, {1}), 2, 2, "sat", 4),
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
        "10d233519b1e1de4a0cd1dd0da5174ba7471228e",
        "d6f9d873ecdb6a43c39f9de9280554a4a5372e11",
    ),
    ('arbiter-2', 2, 2): (
        "d33b01e3082b7654aadc7eafb334fdf5c8e7a6f2",
        "aba76740ec82a8dce820440ffe1a6f088d4f72b6",
    ),
    ('arbiter-2-full', 3, 1): (
        "492da739b03306d7521e7e01b45952cb9a33fe84",
        "22db60d8de1fed2b1f7fc2d096b3c7e8731967fe",
    ),
    ('arbiter-2-full', 3, 2): (
        "1e530f1dde1c21cfbc1874a57bbd80f61c5e1c2b",
        "a38e28fc8ea573f690c6e4a53e96532a18bd4334",
    ),
    ('arbiter-2-full', 4, 2): (
        "7f5c2d9b3d508019e06f0be733616621bc1528b9",
        "3ed727c7edf0a2cc8d27ebe8c43de5dbcc1b7e9a",
    ),
    ('arbiter-3', 3, 1): (
        "b6259a0b6fde7e8d86de055d5e85e3e2c2ba5563",
        "aac09b1fbe01044881c2dfc0b5847899799e70d4",
    ),
    ('arbiter-3', 3, 2): (
        "7375d837a631f800bb4feaca94e09ca6c6a6aee8",
        "c0825cffe9f11ed9a90ac45b1f20eda2e1b91b24",
    ),
    ('arbiter-3', 4, 2): (
        "2d522908a17eaee6b794d53b28565a1e44c22cd4",
        "3d81eaa8d708fd65fb7591e53f56c1912132bf9a",
    ),
    ('arbiter-4', 4, 1): (
        "c9da6fe4e2f6e638c0ea52f57e07cd0dd8edd4b0",
        "a59f23e52a0744812b589f788eb532b2908a85b4",
    ),
    ('demo', 1, 1): (
        "7304a26a3eaceed7580ee276b5662abeaeaff2df",
        "5c8dd98d698afa3076a25d7d794d9764362750ab",
    ),
    ('demo', 1, 2): (
        "e69477c742251c16e948e6e21bf134a94db8a5a4",
        "243592bfe99032dcb799e2b7d33a250d47833d64",
    ),
    ('demo', 2, 1): (
        "10d233519b1e1de4a0cd1dd0da5174ba7471228e",
        "d6f9d873ecdb6a43c39f9de9280554a4a5372e11",
    ),
    ('demo', 1, 3): (
        "2c9825d4b7bc3c6485028063e12c04687e49cdaa",
        "08cba5d9eb3e4e594c2b97151abf0bfa92f71dcd",
    ),
    ('demo', 2, 2): (
        "d33b01e3082b7654aadc7eafb334fdf5c8e7a6f2",
        "aba76740ec82a8dce820440ffe1a6f088d4f72b6",
    ),
    ('arbiter-k2', 1, 1): (
        "fd270565f27f12c49429d2b8d7c2453716c1e13a",
        "fc4c9f0e539b45c98221c3af76b2ec7b3cac190b",
    ),
    ('arbiter-k2', 2, 1): (
        "fde46b6d9bfb6bbadcf6559713929bf13be21e11",
        "8276dab52bd8515a8b259344e193e046b97b1ad7",
    ),
    ('arbiter-k2', 3, 1): (
        "c5128da5ccf15d91cadb0d6748e13dcfcd012cd3",
        "e8a468c5c69ca78333d60edacc0c555a76988acc",
    ),
    ('arbiter-k2', 4, 1): (
        "b135544172ace933766d0c05da77d72aa5e3886a",
        "92cd9acb8eb2afb862bf3a8aae7f614dfcf30def",
    ),
    ('two-universal', 1, 1): (
        "abc7c1aade61ebc59e8196404982a1eb3b1eb097",
        "d64835ec3950f58c6be4b5ba7f07644863520761",
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
