#!/usr/bin/env python3
"""Regenerate data/known_good.json, the machines verify-random expects to hold.

    python3 perfbench/make_known_good.py

Each entry is the (system, generator) pair that `synth.solve_at_bounds`
returns at the bound where the arbiter table or the search workload decides
SAT. Before it is written, each system is checked with the reference
evaluator on its traces under small input lassos, and the pair with the model
checker.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
sys.path.insert(0, SRC)
# the solver subprocess imports the package from the same tree
os.environ["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")

from hypersynth.bench import gen_arbiter  # noqa: E402
from hypersynth.formula import parse  # noqa: E402
from hypersynth.mc import mc_exists_forall  # noqa: E402
from hypersynth.synth import prepare, solve_at_bounds  # noqa: E402

from checks import holds_on_small_lassos  # noqa: E402

# (name, spec, bound, reference evaluator bound); the arbiter bounds are the
# points the bench decides those rows at, one system state above the table
ENTRIES = (
    ("arbiter-2-prompt(2,2)", {"arbiter": {"k": 2, "prompt": [1], "full": False}}, (2, 2), 2),
    ("arbiter-2-full-prompt(4,2)", {"arbiter": {"k": 2, "prompt": [1], "full": True}}, (4, 2), 2),
    ("arbiter-3-prompt(4,2)", {"arbiter": {"k": 3, "prompt": [1], "full": False}}, (4, 2), 1),
    ("demo(2,2)", {"spec": "demo.hq"}, (2, 2), 2),
    ("arbiter2-k2(4,1)", {"spec": "arbiter2_k2.hq"}, (4, 1), 1),
)


def main() -> int:
    machines = []
    for name, source, (n, m), bound in ENTRIES:
        if "arbiter" in source:
            doc = gen_arbiter(**source["arbiter"])
        else:
            doc = parse((HERE / "specs" / source["spec"]).read_text(encoding="utf-8"))
        inst = prepare(doc)
        res = solve_at_bounds(inst, n, m)
        if res.status != "sat":
            raise SystemExit(f"{name}: expected sat, got {res.status}")
        if not mc_exists_forall(res.system, res.generator, inst.core)[0]:
            raise SystemExit(f"{name}: model checker rejects the pair")
        if not holds_on_small_lassos(res.system, doc.formula, bound):
            raise SystemExit(f"{name}: reference evaluator rejects the system")
        gen = json.loads(res.generator.to_json()) if res.generator else None
        machines.append({**source, "name": name, "system": json.loads(res.system.to_json()), "generator": gen})
        print(f"{name}: ok")
    doc = {
        "about": "pairs synthesized by solve_at_bounds and checked by make_known_good.py",
        "machines": machines,
    }
    (HERE / "data" / "known_good.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
