"""The installed package carries no dependency that only the tests use, and
prefix classification reads only the syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypersynth"


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    offenders = [p.name for p in modules if "numpy" in _top_level_imports(p)]
    assert offenders == []


def test_fragments_reads_only_the_formula_module():
    # classification needs none of the evaluator, the reductions or the model
    # checker
    path = SRC / "fragments.py"
    relative = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            relative.add(node.module)
    assert relative == {"formula"}
