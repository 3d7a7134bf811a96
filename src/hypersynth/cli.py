"""Command-line front end: classify, reduce, synthesize, verify, benchmark."""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from .bench import TABLE_INSTANCES, run_suite
from .formula import SpecError, parse, print_formula
from .fragments import classify_formula
from .machines import ExistGenerator, MooreSystem
from .mc import generator_vars, mc_exists_forall
from .sat import emit_dimacs
from .synth import (
    EncoderSoundnessError,
    SolverFailure,
    encode,
    prepare,
    search,
)

EXIT_OK = 0
EXIT_UNREALIZABLE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError(f"cannot read {path}: {e}") from e


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SpecError(f"cannot write {path}: {e}") from e


def _load_spec(path: str):
    return parse(_read_text(path))


def cmd_classify(args) -> int:
    doc = _load_spec(args.spec)
    verdict = classify_formula(doc.formula)
    print(f"{verdict.kind}")
    print(f"decidable: {'yes' if verdict.decidable else 'no'}")
    print(f"reason: {verdict.justification}")
    return EXIT_OK


def _prepare(args):
    """The specification file reduced under the command's reduction flags."""
    return prepare(
        _load_spec(args.spec),
        designated_input=args.designated_input,
        force=args.force,
    )


def cmd_reduce(args) -> int:
    inst = _prepare(args)
    print(inst.trace.render())
    print(f"existential copies: {', '.join(inst.exist_vars) or 'none'}")
    print(f"universal copies:   {', '.join(inst.universal_vars) or 'none'}")
    print(f"body: {print_formula(inst.body)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    inst = _prepare(args)
    if args.backend:
        problem = encode(inst, args.max_system, args.max_exists)
        text = emit_dimacs(problem.nvars, problem.clauses, problem.comments)
        if args.out:
            _write_text(args.out, text)
            print(f"{args.backend} constraints for bounds ({args.max_system},{args.max_exists}) written to {args.out}")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    try:
        result, attempts = search(inst, args.max_system, args.max_exists, timeout=args.timeout)
    except (SolverFailure, EncoderSoundnessError) as e:
        # the points solved before the failure; main prints the failure
        _print_stats(args, e.attempts)
        raise
    if result is None:
        if "uniformize" in {s.name for s in inst.trace.steps}:
            # witnesses fixed before the universal traces only under-approximate
            print("no model found under uniform witnesses within the given bounds; "
                  "the verdict is bound-relative; attempted:")
        else:
            print("unrealizable within the given bounds; attempted:")
        for a in attempts:
            print(f"  ({a.n},{a.m}) lambda={a.lambda_max}: {a.status}")
        _print_stats(args, attempts)
        return EXIT_UNREALIZABLE
    print(f"realizable at system bound {result.n}, generator bound {result.m}")
    payload = {"system": json.loads(result.system.to_json())}
    if result.generator is not None:
        payload["generator"] = json.loads(result.generator.to_json())
    text = json.dumps(payload, indent=2)
    if args.out:
        _write_text(args.out, text + "\n")
        print(f"machines written to {args.out}")
    else:
        print(text)
    if args.dot:
        _write_text(args.dot, result.system.to_dot())
        print(f"system rendered to {args.dot}")
    _print_stats(args, attempts)
    return EXIT_OK


def _print_stats(args, attempts) -> None:
    """With --stats, one JSON line per attempted (n, m) point, in search order."""
    if args.stats:
        for a in attempts:
            print(json.dumps({"n": a.n, "m": a.m, "status": a.status, "stats": a.stats}))


def _load_machines(path: str):
    text = _read_text(path)
    try:
        raw = json.loads(text)
        if isinstance(raw, dict) and "system" in raw:
            system = MooreSystem.from_json(json.dumps(raw["system"]))
            generator = None
            if raw.get("generator") is not None:
                generator = ExistGenerator.from_json(json.dumps(raw["generator"]))
            return system, generator
        if isinstance(raw, dict) and raw.get("kind") == "moore":
            return MooreSystem.from_json(json.dumps(raw)), None
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as e:
        # what the loaders raise on JSON of the wrong shape or nesting depth
        raise SpecError(f"{path}: malformed machine document: {e}") from e
    raise SpecError(f"{path}: expected a system document or a moore machine")


def _check_generator(generator, inst) -> None:
    """The generator must fix exactly the specification's existential copies."""
    if generator is None:
        if inst.exist_vars:
            raise SpecError(
                f"the specification has existential copies ({', '.join(inst.exist_vars)}) "
                "but the document has no generator"
            )
        return
    if not inst.exist_vars:
        raise SpecError("the document has a generator but the specification has no existential copy")
    if set(generator_vars(generator)) != set(inst.exist_vars):
        raise SpecError(
            f"generator copies ({', '.join(generator_vars(generator))}) are not the "
            f"specification's existential copies ({', '.join(inst.exist_vars)})"
        )
    stray = [s for s in generator.signals if s not in inst.gen_signals]
    if stray:
        raise SpecError(f"generator signals {', '.join(stray)} name no declared input or output")


def cmd_verify(args) -> int:
    system, generator = _load_machines(args.machine)
    inst = _prepare(args)
    if tuple(system.inputs) != tuple(inst.inputs) or tuple(system.outputs) != tuple(inst.outputs):
        raise SpecError("machine signals do not match the specification header")
    _check_generator(generator, inst)
    ok, cex = mc_exists_forall(system, generator, inst.core)
    if ok:
        print("verified: the machine satisfies the specification")
        return EXIT_OK
    print("violation found; universal-copy input lassos:")
    for t in cex or []:
        print(f"  prefix={[sorted(v) for v in t.prefix]} loop={[sorted(v) for v in t.loop]}")
    return EXIT_UNREALIZABLE


def cmd_bench(args) -> int:
    known = {b.name for b in TABLE_INSTANCES}
    if args.instance:
        unknown = [n for n in args.instance if n not in known]
        if unknown:
            raise SpecError(f"unknown instances: {', '.join(unknown)}; known: {', '.join(sorted(known))}")
        selection = args.instance
    elif args.full_table:
        selection = sorted(known)
    else:
        selection = None  # run_suite's default
    report = run_suite(selection, timeout=args.timeout)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


def _seconds(text: str) -> float:
    """A positive finite number of seconds, for --timeout."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number of seconds")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypersynth",
        description="Realizability checking and bounded synthesis for trace- and proposition-quantified temporal specifications.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_reduction_flags(sp):
        sp.add_argument("--designated-input", metavar="NAME", default=None,
                        help="input signal that carries quantified propositions (default: first input)")
        sp.add_argument("--force", action="store_true",
                        help="proceed on prefixes outside the decidable fragments (bound-relative verdicts)")

    sp = sub.add_parser("classify", help="place a specification in the decidability landscape")
    sp.add_argument("spec", help="specification file, or - for stdin")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("reduce", help="show the reduction to an exists*-forall* core")
    sp.add_argument("spec")
    add_reduction_flags(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("synth", help="bounded synthesis over increasing state bounds")
    sp.add_argument("spec")
    sp.add_argument("--max-system", type=int, required=True, metavar="N")
    sp.add_argument("--max-exists", type=int, required=True, metavar="M")
    sp.add_argument("--backend", choices=("dimacs",), default=None,
                    help="emit constraints at the maximal bounds instead of solving")
    sp.add_argument("--timeout", type=_seconds, default=None, metavar="SEC",
                    help="time limit of each solver call")
    sp.add_argument("--out", default=None, metavar="FILE")
    sp.add_argument("--dot", default=None, metavar="FILE")
    sp.add_argument("--stats", action="store_true",
                    help="after the verdict, print each attempted point's stats as one JSON line")
    add_reduction_flags(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("verify", help="model check a machine document against a specification")
    sp.add_argument("machine", help="machine JSON file (system plus optional generator)")
    sp.add_argument("spec")
    add_reduction_flags(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bench", help="run the arbiter regression suite")
    sp.add_argument("--instance", action="append", default=None, metavar="NAME")
    sp.add_argument("--full-table", action="store_true",
                    help="also run the arbiter-4 instance")
    sp.add_argument("--timeout", type=_seconds, default=None, metavar="SEC",
                    help="time limit of each solver call")
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except EncoderSoundnessError as e:
        print(f"internal soundness failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as e:
        # a fault of the program, never a verdict (1) or malformed input (2)
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
