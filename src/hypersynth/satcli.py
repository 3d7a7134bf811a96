"""DIMACS command-line front end for the bundled solver."""

from __future__ import annotations

import argparse
import sys

from .sat import parse_dimacs, solve_clauses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hypersynth-sat",
        description="Solve a DIMACS CNF file; exit 10 when satisfiable, 20 when not.",
    )
    ap.add_argument("file", nargs="?", default="-", help="CNF file, or - for stdin")
    args = ap.parse_args(argv)

    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"c cannot read {args.file}: {e}", file=sys.stderr)
            return 1
    try:
        nvars, clauses = parse_dimacs(text)
    except ValueError as e:
        print(f"c parse error: {e}", file=sys.stderr)
        return 1

    status, model = solve_clauses(nvars, clauses)
    if status:
        print("s SATISFIABLE")
        for start in range(0, len(model), 20):
            chunk = model[start : start + 20]
            tail = " 0" if start + 20 >= len(model) else ""
            print("v " + " ".join(str(x) for x in chunk) + tail)
        return 10
    print("s UNSATISFIABLE")
    return 20


if __name__ == "__main__":
    sys.exit(main())
