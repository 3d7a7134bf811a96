"""The arbiter benchmark family and its reporting."""

import json

import pytest

from hypersynth.bench import (
    BoundResult,
    DEFAULT_SELECTION,
    InstanceReport,
    SuiteReport,
    TABLE_INSTANCES,
    gen_arbiter,
    instance_by_name,
    run_instance,
    run_suite,
)
from hypersynth.formula import PropExists, TraceForall, WeakUntil, walk
from hypersynth.fragments import SINGLE_UNIVERSAL, classify_formula
from hypersynth.mc import mc_exists_forall
from hypersynth.machines import MooreSystem
from hypersynth.synth import prepare, solve_at_bounds


def test_arbiter_signature():
    doc = gen_arbiter(3, {1})
    assert doc.inputs == ("r1", "r2", "r3")
    assert doc.outputs == ("g1", "g2", "g3")
    assert isinstance(doc.formula, PropExists)
    assert isinstance(doc.formula.child, TraceForall)


def test_arbiter_without_prompt_has_no_prop_quantifier():
    doc = gen_arbiter(2, frozenset())
    assert isinstance(doc.formula, TraceForall)
    assert "q" not in str(doc.formula).split()


def test_arbiter_clause_counts():
    # k=2, prompt={1}: 1 mutex pair, 1 plain service, 2 color bounds, 1 prompt chain
    doc = gen_arbiter(2, {1})
    assert str(doc.formula).count(" U ") == 4  # two nested untils per color branch
    full = gen_arbiter(2, {1}, full=True)
    weaks = [g for g in walk(full.formula) if isinstance(g, WeakUntil)]
    assert len(weaks) == 2
    assert not [g for g in walk(doc.formula) if isinstance(g, WeakUntil)]


def test_arbiter_argument_validation():
    with pytest.raises(ValueError):
        gen_arbiter(0, set())
    with pytest.raises(ValueError):
        gen_arbiter(2, {3})


def test_arbiter_classification():
    assert classify_formula(gen_arbiter(2, {1}).formula).kind == SINGLE_UNIVERSAL
    assert classify_formula(gen_arbiter(3, {1}, True).formula).kind == SINGLE_UNIVERSAL
    assert classify_formula(gen_arbiter(2, frozenset()).formula).kind == SINGLE_UNIVERSAL


def test_promptless_single_client_served_by_always_grant():
    doc = gen_arbiter(1, frozenset())
    inst = prepare(doc)
    always = MooreSystem(("r1",), ("g1",), (frozenset({"g1"}),), ((0, 0),), 0)
    ok, _ = mc_exists_forall(always, None, inst.body)
    assert ok
    res = solve_at_bounds(inst, 1, 1)
    assert res.status == "sat"


def test_prompt_bound_needs_two_states():
    # the shared color must be able to change, so one state cannot watch it
    inst = prepare(gen_arbiter(2, {1}))
    assert solve_at_bounds(inst, 2, 1).status == "unsat"
    assert solve_at_bounds(inst, 2, 2).status == "sat"


def test_table_names_are_unique_and_resolvable():
    names = [b.name for b in TABLE_INSTANCES]
    assert len(names) == len(set(names))
    for name in names:
        assert instance_by_name(name).name == name
    with pytest.raises(KeyError):
        instance_by_name("arbiter-17-prompt")
    assert set(DEFAULT_SELECTION) <= set(names)


def test_optional_rows_match_any_verdict():
    inst = instance_by_name("arbiter-4-prompt")
    assert any(exp == "optional" for _, exp in inst.expected)
    assert BoundResult(4, 2, "optional", "sat").matched
    assert BoundResult(4, 2, "optional", "unsat").matched


def test_bound_result_matching():
    assert BoundResult(2, 1, "unsat", "unsat").matched
    assert not BoundResult(2, 1, "unsat", "sat").matched
    assert not BoundResult(2, 2, "sat", "timeout").matched
    # only a solved model is verified: solve model-checks every model it returns
    assert [BoundResult(2, 1, "sat", v).verified for v in ("sat", "unsat", "timeout", "error")] == [
        True, None, None, None]


def test_instance_report_error_fails():
    rep = InstanceReport("x", SINGLE_UNIVERSAL, (), [], 0.0, "boom")
    assert not rep.ok
    suite = SuiteReport([rep])
    assert suite.exit_code == 3


def test_empty_suite_is_clean():
    suite = run_suite(selection=())
    assert suite.reports == []
    assert suite.exit_code == 0
    assert "0/0" in suite.render()


def test_run_instance_fast_row():
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert rep.ok, rep.error or [b.__dict__ for b in rep.bounds]
    assert rep.classification == SINGLE_UNIVERSAL
    assert "to_hyperltl" in rep.reduction_steps
    verdicts = {(b.n, b.m): b.verdict for b in rep.bounds}
    assert verdicts[(2, 1)] == "unsat"
    assert verdicts[(2, 2)] == "sat"
    sat_rows = [b for b in rep.bounds if b.verdict == "sat"]
    assert all(b.verified for b in sat_rows)


def test_suite_report_render_and_json():
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    suite = SuiteReport([rep])
    text = suite.render()
    assert "arbiter-2-prompt" in text
    assert "1/1 instances as expected" in text
    # a row shows its seconds as to_json rounds them
    b = rep.bounds[-1]
    assert any(line.lstrip().startswith(f"({b.n},{b.m})") and line.endswith(f"[{round(b.seconds, 3):.3f}s]")
               for line in text.splitlines())
    data = json.loads(suite.to_json())
    assert data[0]["name"] == "arbiter-2-prompt"
    assert data[0]["ok"] is True
    assert {row["verdict"] for row in data[0]["bounds"]} == {"sat", "unsat"}
    # each row carries the stats of the solve that decided it
    stats = {(row["n"], row["m"]): row["stats"] for row in data[0]["bounds"]}
    assert {p: s["lambda"] for p, s in stats.items()} == {(2, 1): 2, (2, 2): 2}
    assert all(s["counter_vars"] > 0 and s["clauses"] > 0 and s["reach_nodes"] > 0 for s in stats.values())
    # counters by what their SCC reads: the system copy, the generator, both or neither
    by_kind = [s["counter_vars_by_kind"] for s in stats.values()]
    assert all(set(c) == {"none", "system", "generator", "mixed"} for c in by_kind)
    assert all(sum(c.values()) == s["counter_vars"] for c, s in zip(by_kind, stats.values()))
    assert all(c["system"] > 0 and c["generator"] > 0 for c in by_kind)
    assert {p: s["conflicts"] for p, s in stats.items()} == {(2, 1): 4, (2, 2): 9}
    assert all(s["decisions"] > 0 and s["propagations"] > 0 and "restarts" in s for s in stats.values())
    assert all(s[key] >= 0.0 for s in stats.values() for key in ("encode_s", "solve_s", "verify_s"))
    assert all(0 < s["nba_accepting"] <= s["nba_states"] < s["nba_edges"] for s in stats.values())
    assert all(sum(s["clauses_by_family"].values()) == s["clauses"] and s["step_vars"] > 0 for s in stats.values())
    assert suite.exit_code == 0


def _fake_solves(monkeypatch, sat_points) -> list:
    """Replace the solver by a table: sat exactly at sat_points; returns the
    points asked for."""
    from hypersynth import bench
    from hypersynth.synth import SynthesisResult

    asked = []

    def table(inst, n, m, timeout=None):
        asked.append((n, m))
        return SynthesisResult("sat" if (n, m) in sat_points else "unsat", n, m, 0)

    monkeypatch.setattr(bench, "solve_at_bounds", table)
    return asked


def test_missed_unsat_row_is_a_mismatch(monkeypatch):
    # sat at the paper's unsat point (2,1) must show, whatever (1,1) says
    asked = _fake_solves(monkeypatch, {(2, 1), (2, 2)})
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert [(b.n, b.m, b.verdict, b.slack) for b in rep.bounds] == [
        (2, 1, "sat", None), (2, 2, "sat", None),
    ]
    suite = SuiteReport([rep])
    assert not rep.ok and "MISMATCH" in suite.render()
    assert suite.exit_code == 1
    assert asked == [(2, 1), (2, 2)]


def test_each_row_is_solved_once_at_its_point(monkeypatch):
    asked = _fake_solves(monkeypatch, {(2, 2), (4, 2)})
    suite = run_suite()
    # sorted names: arbiter-2-full-prompt, arbiter-2-prompt, arbiter-3-prompt
    assert asked == [(3, 1), (4, 2), (2, 1), (2, 2), (3, 1), (4, 2)]
    assert suite.exit_code == 0
    slack = {(r.name, b.n, b.m): b.slack for r in suite.reports for b in r.bounds if b.slack}
    assert slack == {("arbiter-2-full-prompt", 3, 2): (4, 2), ("arbiter-3-prompt", 3, 2): (4, 2)}
    assert suite.render().count("(3,2) expected sat      got sat (at 4,2) verified  ok") == 2
    rows = [row for r in json.loads(suite.to_json()) for row in r["bounds"]]
    assert [row["slack"] for row in rows if row["slack"]] == [[4, 2], [4, 2]]
    # an undeclared "sat" row that comes back unsat is a mismatch, not retried
    asked = _fake_solves(monkeypatch, {(3, 2)})
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert [(b.n, b.m, b.verdict, b.slack) for b in rep.bounds] == [
        (2, 1, "unsat", None), (2, 2, "unsat", None),
    ]
    assert asked == [(2, 1), (2, 2)]
    suite = SuiteReport([rep])
    assert "MISMATCH" in suite.render() and suite.exit_code == 1


def test_declared_points_are_needed_and_enough():
    # a row decided away from the paper's point is unsat there and sat at its own
    declared = []
    for bench in TABLE_INSTANCES:
        inst = prepare(bench.doc)
        for (n, m), expected, *at in bench.expected:
            if at:
                assert solve_at_bounds(inst, n, m).status == "unsat", (bench.name, n, m)
                assert solve_at_bounds(inst, *at[0]).status == expected, (bench.name, at[0])
                declared.append((bench.name, n, m))
    assert declared == [("arbiter-2-full-prompt", 3, 2), ("arbiter-3-prompt", 3, 2)]


def test_internal_exception_is_an_error_not_a_verdict(monkeypatch):
    from hypersynth import bench

    def broken(*args, **kwargs):
        raise RuntimeError("solver internals broke")

    monkeypatch.setattr(bench, "solve_at_bounds", broken)
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert [b.verdict for b in rep.bounds] == ["error"]
    assert rep.bounds[0].verified is None
    assert "RuntimeError: solver internals broke" in rep.error
    suite = SuiteReport([rep])
    assert suite.exit_code == 3
    assert "UNVERIFIED" not in suite.render()


def test_soundness_failure_is_an_error_not_a_verdict(monkeypatch):
    from hypersynth import bench
    from hypersynth.synth import EncoderSoundnessError

    def unsound(*args, **kwargs):
        raise EncoderSoundnessError("model fails verification")

    monkeypatch.setattr(bench, "solve_at_bounds", unsound)
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert [b.verdict for b in rep.bounds] == ["error"]
    assert "EncoderSoundnessError" in rep.error
    assert SuiteReport([rep]).exit_code == 3


def test_failed_prepare_is_an_error(monkeypatch):
    from hypersynth import bench

    def broken(*args, **kwargs):
        raise RuntimeError("reduction broke")

    monkeypatch.setattr(bench, "prepare", broken)
    rep = run_instance(instance_by_name("arbiter-2-prompt"))
    assert rep.error == "RuntimeError: reduction broke"
    assert rep.bounds == [] and rep.reduction_steps == ()
    suite = SuiteReport([rep])
    assert suite.exit_code == 3
    assert "ERROR: RuntimeError: reduction broke" in suite.render()


def test_solver_timeout_is_a_timeout_row():
    # the (2,1) row is unsat only after conflicts, where the deadline is checked
    rep = run_instance(instance_by_name("arbiter-2-prompt"), timeout=1e-9)
    assert [b.verdict for b in rep.bounds] == ["timeout"]
    assert "timed out" in rep.error
    assert SuiteReport([rep]).exit_code == 3
