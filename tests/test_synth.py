"""End-to-end synthesis: prepare, encode, solve, search."""

import itertools
import subprocess
import tempfile

import pytest

from hypersynth import synth
from hypersynth.automata import ltl_to_nba, tarjan_sccs
from hypersynth.bench import gen_arbiter
from hypersynth.formula import SpecError, parse
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


def test_prepare_rejects_quantifier_free_body():
    with pytest.raises(SpecError, match="no trace quantifiers"):
        prepare(spec("true"))


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
