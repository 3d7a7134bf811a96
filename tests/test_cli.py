"""The command-line front end, driven through main(argv)."""

import io
import json
import os
import subprocess
import sys

import pytest

import hypersynth
from hypersynth import cli, synth
from hypersynth.bench import DEFAULT_SELECTION, gen_arbiter
from hypersynth.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_UNREALIZABLE, main
from hypersynth.formula import print_document
from hypersynth.machines import MooreSystem
from hypersynth.synth import EncoderSoundnessError, SolverFailure
from test_automata import FOUND_SPEC

ALWAYS = "inputs: i\noutputs: o\nforall pi : trace . G (o[pi])\n"
DELAYED = "inputs: i\noutputs: o\nforall pi : trace . G (i[pi] -> (X (o[pi])))\n"
INSTANT = "inputs: i\noutputs: o\nforall pi : trace . G (o[pi] <-> i[pi])\n"
ARBITER_2 = print_document(gen_arbiter(2, {1}))
FORALL_EXISTS = "inputs: i\noutputs: o\nforall pi : trace . exists e : trace . G (o[e] -> o[pi])\n"
# holds (e is pi with its inputs flipped), but not with e fixed before pi
FLIPPED_WITNESS = "inputs: i\noutputs: o\nforall pi : trace . exists e : trace . G (i[e] <-> !i[pi])\n"


@pytest.fixture
def specfile(tmp_path):
    def write(text, name="spec.hq"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_classify_decidable(specfile, capsys):
    assert main(["classify", specfile(ALWAYS)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "SingleUniversalDecidable" in out
    assert "decidable: yes" in out


def test_classify_undecidable(specfile, capsys):
    assert main(["classify", specfile(FORALL_EXISTS)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Undecidable_TraceForallExists" in out
    assert "decidable: no" in out


def test_classify_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(ALWAYS))
    assert main(["classify", "-"]) == EXIT_OK
    assert "SingleUniversalDecidable" in capsys.readouterr().out


def test_classify_missing_file(capsys):
    assert main(["classify", "/nonexistent/spec.hq"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_reduce_output(specfile, capsys):
    assert main(["reduce", specfile(ALWAYS)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "existential copies: none" in out
    assert "universal copies:   pi" in out
    assert "body:" in out


def test_reduce_rejects_unknown_designated_input_even_unused(specfile, capsys):
    # ALWAYS has no propositional quantifier, so the input would go unread
    assert main(["reduce", "--designated-input", "zz", specfile(ALWAYS)]) == EXIT_INPUT
    assert "'zz' is not a declared input" in capsys.readouterr().err


def test_reduce_undecidable_needs_force(specfile, capsys):
    assert main(["reduce", specfile(FORALL_EXISTS)]) == EXIT_INPUT
    assert "force" in capsys.readouterr().err
    assert main(["reduce", "--force", specfile(FORALL_EXISTS)]) == EXIT_OK


def test_synth_realizable_prints_machines(specfile, capsys):
    rc = main(["synth", specfile(DELAYED), "--max-system", "2", "--max-exists", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "realizable at system bound" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["system"]["kind"] == "moore"


def test_synth_unrealizable_exit(specfile, capsys):
    rc = main(["synth", specfile(INSTANT), "--max-system", "2", "--max-exists", "1"])
    assert rc == EXIT_UNREALIZABLE
    out = capsys.readouterr().out
    assert "unrealizable within the given bounds" in out
    assert "(1,1)" in out and "(2,1)" in out


def test_synth_stats_prints_one_json_line_per_attempt(specfile, capsys):
    # unsat at one state, sat at two: the output must alternate
    alternate = "inputs: i\noutputs: o\nforall pi : trace . G F o[pi] & G F !o[pi]\n"
    for text, rc, want in ((alternate, EXIT_OK, "sat"), (INSTANT, EXIT_UNREALIZABLE, "unsat")):
        argv = ["synth", specfile(text), "--max-system", "2", "--max-exists", "1", "--stats"]
        assert main(argv) == rc
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(l) for l in lines[-2:]]
        assert [(r["n"], r["m"]) for r in rows] == [(1, 1), (2, 1)]
        assert rows[-1]["status"] == want and rows[0]["status"] == "unsat"
        for r in rows:
            families = r["stats"]["clauses_by_family"]
            assert families["state_order"] == r["n"] - 1
            assert sum(families.values()) == r["stats"]["clauses"]
            assert r["stats"]["conflicts"] >= 0
            assert r["stats"]["reach_nodes"] > 0
    # without the flag the output ends with the verdict's own lines
    assert main(["synth", specfile(INSTANT), "--max-system", "2", "--max-exists", "1"]) == EXIT_UNREALIZABLE
    assert "{" not in capsys.readouterr().out


def test_synth_stats_keep_the_points_solved_before_a_failure(specfile, monkeypatch, capsys):
    # INSTANT is unsat at every point; the third of (1,1), (2,1), (3,1) fails
    real = synth.solve_at_bounds

    def fails_third(instance, n, m, timeout=None):
        if n == 3:
            raise SolverFailure("solver timed out at (3,1)")
        return real(instance, n, m, timeout)

    monkeypatch.setattr(synth, "solve_at_bounds", fails_third)
    argv = ["synth", specfile(INSTANT), "--max-system", "3", "--max-exists", "1", "--stats"]
    assert main(argv) == EXIT_SOLVER
    captured = capsys.readouterr()
    rows = [json.loads(l) for l in captured.out.splitlines()]
    assert [(r["n"], r["m"], r["status"]) for r in rows] == [(1, 1, "unsat"), (2, 1, "unsat")]
    assert captured.err == "solver failure: solver timed out at (3,1)\n"


def test_synth_uniformized_unsat_is_bound_relative(specfile, capsys):
    rc = main([
        "synth", specfile(FLIPPED_WITNESS), "--force",
        "--max-system", "2", "--max-exists", "2",
    ])
    assert rc == EXIT_UNREALIZABLE
    out = capsys.readouterr().out
    assert "unrealizable" not in out
    assert "uniform witnesses" in out and "bound-relative" in out


def test_synth_has_no_lambda_cap(specfile, capsys):
    # an UNSAT answer under a capped counter bound would prove nothing:
    # with every counter capped at 1 this spec reads as unrealizable at n=3
    text = "inputs: i\noutputs: o\nforall pi : trace . G F (o[pi] & X o[pi]) & G F !o[pi]\n"
    path = specfile(text)
    with pytest.raises(SystemExit) as exc:
        main(["synth", path, "--max-system", "3", "--max-exists", "1", "--lambda-max", "1"])
    assert exc.value.code == EXIT_INPUT
    capsys.readouterr()
    assert main(["synth", path, "--max-system", "3", "--max-exists", "1"]) == EXIT_OK
    assert "realizable at system bound 3" in capsys.readouterr().out


def test_universal_copies_cannot_be_collapsed(specfile, capsys):
    # identifying the universal traces weakens this body to G (X o <-> i),
    # which two states realize; every universal trace gets its own copy
    text = "inputs: i\noutputs: o\nforall p1 : trace . forall p2 : trace . " \
        "G ((X o[p1]) <-> i[p1]) & G (o[p1] <-> o[p2])\n"
    path = specfile(text)
    for argv in (["synth", path, "--max-system", "1", "--max-exists", "1"], ["reduce", path]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--collapse"])
        assert exc.value.code == EXIT_INPUT
    capsys.readouterr()
    assert main(["synth", path, "--max-system", "2", "--max-exists", "1"]) == EXIT_UNREALIZABLE
    assert "unrealizable within the given bounds" in capsys.readouterr().out


def test_synth_out_and_dot_then_verify(specfile, tmp_path, capsys):
    out_path = tmp_path / "machine.json"
    dot_path = tmp_path / "machine.dot"
    spec = specfile(DELAYED)
    rc = main([
        "synth", spec, "--max-system", "2", "--max-exists", "1",
        "--out", str(out_path), "--dot", str(dot_path),
    ])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert "digraph" in dot_path.read_text()
    assert json.loads(out_path.read_text())["system"]["kind"] == "moore"
    rc = main(["verify", str(out_path), spec])
    assert rc == EXIT_OK
    assert "verified" in capsys.readouterr().out


def test_synth_out_with_generator_then_verify(specfile, tmp_path, capsys):
    # the generator's JSON goes out with the system's and comes back in
    out_path = tmp_path / "machines.json"
    spec = specfile(WITNESS_HOLDS)
    rc = main(["synth", spec, "--max-system", "1", "--max-exists", "1", "--out", str(out_path)])
    assert rc == EXIT_OK
    assert json.loads(out_path.read_text())["generator"]["signals"] == ["i@e", "o@e"]
    capsys.readouterr()
    assert main(["verify", str(out_path), spec]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--out", "{bad}"], ["--dot", "{bad}"], ["--backend", "dimacs", "--out", "{bad}"]],
    ids=["out", "dot", "dimacs-out"],
)
def test_synth_unwritable_output_is_input_error(flags, specfile, tmp_path, capsys):
    bad = str(tmp_path / "missing" / "file")
    argv = ["synth", specfile(DELAYED), "--max-system", "2", "--max-exists", "1"]
    assert main(argv + [f.format(bad=bad) for f in flags]) == EXIT_INPUT
    assert f"cannot write {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
def test_timeout_must_be_positive_and_finite(value, specfile, capsys):
    for argv in (
        ["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1"],
        ["bench", "--instance", "arbiter-2-prompt"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--timeout={value}"])
        assert exc.value.code == EXIT_INPUT
        assert "positive finite number of seconds" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError("k"), RuntimeError("r")], ids=["KeyError", "RuntimeError"])
def test_internal_error_is_named_and_exits_3(error, specfile, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "search", broken)
    assert main(["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert f"internal error: {type(error).__name__}: " in err
    assert "Traceback" in err


def test_soundness_failure_exits_3(specfile, monkeypatch, capsys):
    def unsound(*args, **kwargs):
        raise EncoderSoundnessError("SAT model at (1,1) fails containment verification")

    monkeypatch.setattr(cli, "search", unsound)
    assert main(["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1"]) == EXIT_SOLVER
    assert "internal soundness failure: SAT model at (1,1)" in capsys.readouterr().err


def test_undecodable_spec_is_input_error(tmp_path, capsys):
    spec = tmp_path / "binary.hq"
    spec.write_bytes(b"inputs: i\n\xff\xfe\n")
    assert main(["classify", str(spec)]) == EXIT_INPUT
    assert f"cannot read {spec}" in capsys.readouterr().err


def test_synth_backend_dimacs(specfile, tmp_path, capsys):
    out_path = tmp_path / "problem.cnf"
    rc = main([
        "synth", specfile(ALWAYS), "--max-system", "2", "--max-exists", "1",
        "--backend", "dimacs", "--out", str(out_path),
    ])
    assert rc == EXIT_OK
    assert "written to" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("c ")]
    tag, fmt, nvars, nclauses = body[0].split()
    assert (tag, fmt) == ("p", "cnf") and int(nvars) > 0
    assert int(nclauses) == len(body) - 1 > 0
    assert all(l.endswith(" 0") for l in body[1:])


def test_synth_solver_failure(specfile, capsys):
    # the deadline is checked at conflicts; the two-client arbiter's (1,1)
    # point takes at least one
    rc = main([
        "synth", specfile(ARBITER_2), "--max-system", "1", "--max-exists", "1",
        "--timeout", "1e-9",
    ])
    assert rc == EXIT_SOLVER
    assert "timed out after 1e-09s at (1,1)" in capsys.readouterr().err


def test_no_external_solver_flag(specfile, capsys):
    for argv in (
        ["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1", "--solver", "X"],
        ["bench", "--solver", "X"],
        # DIMACS is the one emitter
        ["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1", "--backend", "smtlib"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--solver" in err
    assert "invalid choice: 'smtlib'" in err


def test_verify_violation(specfile, tmp_path, capsys):
    never = MooreSystem(("i",), ("o",), (frozenset(),), ((0, 0),), 0)
    doc = tmp_path / "never.json"
    doc.write_text(json.dumps({"system": json.loads(never.to_json())}))
    rc = main(["verify", str(doc), specfile(ALWAYS)])
    assert rc == EXIT_UNREALIZABLE
    out = capsys.readouterr().out
    assert "violation found" in out
    assert "prefix=" in out


def test_verify_signal_mismatch(specfile, tmp_path, capsys):
    wrong = MooreSystem(("r",), ("o",), (frozenset({"o"}),), ((0, 0),), 0)
    doc = tmp_path / "wrong.json"
    doc.write_text(json.dumps({"system": json.loads(wrong.to_json())}))
    assert main(["verify", str(doc), specfile(ALWAYS)]) == EXIT_INPUT
    assert "signals" in capsys.readouterr().err


def test_verify_rejects_junk_document(specfile, tmp_path, capsys):
    doc = tmp_path / "junk.json"
    doc.write_text("[1, 2, 3]")
    assert main(["verify", str(doc), specfile(ALWAYS)]) == EXIT_INPUT


# the echo machine's document: it satisfies DELAYED
ECHO = json.loads(
    MooreSystem(("i",), ("o",), (frozenset(), frozenset({"o"})), ((0, 1), (0, 1)), 0).to_json()
)
ECHO_STEPS = ECHO["transitions"]


def _echo_with(**edits):
    return {"system": {**ECHO, **edits}}


def _generator(**edits):
    g = {"kind": "generator", "signals": ["i@e"], "states": 1, "initial": 0,
         "labels": [["i@e"]], "next": [0]}
    return {"system": ECHO, "generator": {**g, **edits}}


def test_verify_echo_machine(specfile, tmp_path):
    doc = tmp_path / "echo.json"
    doc.write_text(json.dumps(_echo_with()))
    assert main(["verify", str(doc), specfile(DELAYED)]) == EXIT_OK


@pytest.mark.parametrize(
    "document",
    [
        # a source state out of range
        _echo_with(transitions=[{**ECHO_STEPS[0], "from": 5}] + ECHO_STEPS[1:]),
        # a negative source would overwrite the last state's row
        _echo_with(transitions=ECHO_STEPS + [{"from": -1, "input": ["i"], "to": 0}]),
        # a repeated (from, input) pair
        _echo_with(transitions=ECHO_STEPS + [{"from": 1, "input": ["i"], "to": 0}]),
        # a successor that is not an integer
        _echo_with(transitions=[{**ECHO_STEPS[0], "to": "0"}] + ECHO_STEPS[1:]),
        # a label naming an undeclared output
        _echo_with(labels=[[], ["o", "z"]]),
        # an input valuation naming an undeclared signal
        _echo_with(transitions=[{**ECHO_STEPS[0], "input": ["x"]}] + ECHO_STEPS[1:]),
        # a generator label outside its signals
        _generator(labels=[["o@e"]]),
        # a generator successor that is not an integer
        _generator(next=["0"]),
    ],
    ids=["from-out-of-range", "from-negative", "repeated-pair", "to-string",
         "undeclared-output", "undeclared-input", "generator-label", "generator-next"],
)
def test_verify_rejects_malformed_machine(document, specfile, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(document))
    assert main(["verify", str(doc), specfile(DELAYED)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# shapes the loaders do not expect: each once escaped main as a TypeError,
# AttributeError or RecursionError and exited 1, the code of a found violation
@pytest.mark.parametrize(
    "document",
    [
        _echo_with(transitions=[1] + ECHO_STEPS[1:]),
        _echo_with(transitions=None),
        {"system": [1]},
        _generator(next=0),
        # nested deeper than the JSON decoder recurses, given as text
        "[" * 100_000,
    ],
    ids=["transition-not-object", "transitions-null", "system-list", "generator-next-number",
         "nested-too-deep"],
)
def test_verify_rejects_misshapen_document(document, specfile, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main(["verify", str(doc), specfile(DELAYED)]) == EXIT_INPUT
    assert f"error: {doc}: malformed machine document" in capsys.readouterr().err


# a JSON string where a list of names belongs would load as its characters
@pytest.mark.parametrize(
    "document",
    [
        _echo_with(inputs="i"),
        _echo_with(outputs="o"),
        _echo_with(labels=[[], "o"]),
        _echo_with(transitions=[{**t, "input": "i" if t["input"] else ""} for t in ECHO_STEPS]),
        _generator(signals=""),
        _generator(labels=[""]),
    ],
    ids=["inputs", "outputs", "label", "transition-input", "generator-signals", "generator-label"],
)
def test_verify_rejects_string_for_name_list(document, specfile, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(document))
    assert main(["verify", str(doc), specfile(DELAYED)]) == EXIT_INPUT
    assert "is not a list" in capsys.readouterr().err


# an always-granting system; the witness e must be one of its branches
ON = json.loads(MooreSystem(("i",), ("o",), (frozenset({"o"}),), ((0, 0),), 0).to_json())
WITNESS_HOLDS = "inputs: i\noutputs: o\nexists e : trace . forall pi : trace . G (o[e] & o[pi])\n"
# false on every machine: no input lasso makes pi read i eventually
WITNESS_FAILS = "inputs: i\noutputs: o\nexists e : trace . forall pi : trace . G o[e] & F i[pi]\n"
TWO_WITNESSES = (
    "inputs: i\noutputs: o\nexists e : trace . exists f : trace . forall pi : trace . G (o[e] & o[f] & o[pi])\n"
)


def _on_with(signals, label):
    g = {"kind": "generator", "signals": signals, "states": 1, "initial": 0,
         "labels": [label], "next": [0]}
    return {"system": ON, "generator": g}


def test_verify_generator_for_existential_copy(specfile, tmp_path, capsys):
    doc = tmp_path / "on.json"
    doc.write_text(json.dumps(_on_with(["i@e", "o@e"], ["o@e"])))
    assert main(["verify", str(doc), specfile(WITNESS_HOLDS)]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


def test_verify_accepts_a_bare_machine(specfile, tmp_path, capsys):
    # a moore machine without the system wrapper is a system with no generator
    doc = tmp_path / "on.json"
    doc.write_text(json.dumps(ON))
    assert main(["verify", str(doc), specfile(ALWAYS)]) == EXIT_OK
    assert "verified" in capsys.readouterr().out
    assert main(["verify", str(doc), specfile(INSTANT)]) == EXIT_UNREALIZABLE
    assert "violation found" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, document, message",
    [
        (WITNESS_FAILS, {"system": ON}, "no generator"),
        (ALWAYS, _on_with(["i@e", "o@e"], ["o@e"]), "no existential copy"),
        # a generator over the universal copy would be read as the witness
        (WITNESS_FAILS, _on_with(["i@pi", "o@pi"], ["i@pi", "o@pi"]), "existential copies"),
        (TWO_WITNESSES, _on_with(["i@e", "o@e"], ["o@e"]), "existential copies"),
        (WITNESS_HOLDS, _on_with(["i@e", "o@e", "z@e"], ["o@e"]), "z@e"),
    ],
    ids=["missing-generator", "stray-generator", "universal-copy", "missing-copy",
         "undeclared-signal"],
)
def test_verify_rejects_generator_not_matching_spec(spec, document, message, specfile, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(document))
    assert main(["verify", str(doc), specfile(spec)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_bench_single_instance_json(specfile, capsys):
    rc = main(["bench", "--instance", "arbiter-2-prompt", "--json"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in data] == ["arbiter-2-prompt"]
    assert data[0]["ok"] is True


def _run_module(argv, timeout=None):
    """`python -m hypersynth ARGV` in a child that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(hypersynth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hypersynth", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_bench_without_a_selection_runs_the_default_instances(capsys):
    assert main(["bench"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("3/3 instances as expected")
    assert [l.split()[0] for l in lines[:-1] if not l.startswith(" ")] == sorted(DEFAULT_SELECTION)


def test_bench_runs_a_repeated_instance_once(capsys):
    rc = main(["bench", "--instance", "arbiter-2-prompt", "--instance", "arbiter-2-prompt"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1/1 instances as expected" in out
    assert out.count("arbiter-2-prompt") == 1


def test_package_runs_as_a_module():
    proc = _run_module(["bench", "--instance", "arbiter-2-prompt"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "arbiter-2-prompt" in proc.stdout


def test_synth_on_a_large_body_returns_a_verdict(specfile):
    # in a child process, so that a tableau that never finishes fails the test
    argv = ["synth", specfile(FOUND_SPEC), "--max-system", "2", "--max-exists", "1", "--timeout", "1"]
    proc = _run_module(argv, timeout=60)
    assert proc.returncode in (EXIT_OK, EXIT_UNREALIZABLE), proc.stderr
    assert "realizable" in proc.stdout


def test_bench_unknown_instance(capsys):
    assert main(["bench", "--instance", "arbiter-17-prompt"]) == EXIT_INPUT
    assert "unknown instances" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
