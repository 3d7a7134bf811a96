"""The command-line front end, driven through main(argv)."""

import io
import json

import pytest

from hypersynth.bench import gen_arbiter
from hypersynth.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_UNREALIZABLE, main
from hypersynth.formula import print_document
from hypersynth.machines import MooreSystem

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


def test_synth_backend_smtlib_stdout(specfile, capsys):
    rc = main([
        "synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1",
        "--backend", "smtlib",
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("(set-logic QF_UF)")
    assert "(check-sat)" in out


def test_synth_solver_failure(specfile, capsys):
    # the deadline is checked at conflicts; the two-client arbiter's (1,1)
    # point takes at least one
    rc = main([
        "synth", specfile(ARBITER_2), "--max-system", "1", "--max-exists", "1",
        "--timeout", "1e-9",
    ])
    assert rc == EXIT_SOLVER
    assert "timed out" in capsys.readouterr().err


def test_no_external_solver_flag(specfile, capsys):
    for argv in (
        ["synth", specfile(ALWAYS), "--max-system", "1", "--max-exists", "1", "--solver", "X"],
        ["bench", "--solver", "X"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
    assert "--solver" in capsys.readouterr().err


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


def test_bench_single_instance_json(specfile, capsys):
    rc = main(["bench", "--instance", "arbiter-2-prompt", "--json"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in data] == ["arbiter-2-prompt"]
    assert data[0]["ok"] is True


def test_bench_unknown_instance(capsys):
    assert main(["bench", "--instance", "arbiter-17-prompt"]) == EXIT_INPUT
    assert "unknown instances" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])
