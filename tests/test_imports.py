"""Neither the package nor its tests import numpy, prefix classification
reads only the syntax tree, no pipeline module imports the reference
evaluator (while `import hypersynth` still loads it through the package's
re-exports), and the package exports exactly the names it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypersynth"


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
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) >= 10 and len(tests) >= 10
    offenders = [str(p.relative_to(ROOT)) for p in modules + tests if "numpy" in _top_level_imports(p)]
    assert offenders == []


def _relative_imports(name: str) -> set:
    path = SRC / f"{name}.py"
    relative = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            relative.add(node.module)
    return relative


def test_fragments_reads_only_the_formula_module():
    # classification needs none of the evaluator, the reductions or the model
    # checker
    assert _relative_imports("fragments") == {"formula"}


def test_pipeline_does_not_import_the_reference_evaluator():
    # semantics is the tests' and the benchmark judge's oracle; no pipeline
    # module imports it, directly or through another module, while
    # `import hypersynth` still loads it through the package's re-exports
    for name in ("automata", "machines", "mc", "reductions", "sat", "synth"):
        reached, todo = set(), [name]
        while todo:
            for m in _relative_imports(todo.pop()) - reached:
                reached.add(m)
                todo.append(m)
        assert "semantics" not in reached, name


def test_package_exports_exactly_what_it_imports():
    # a name dropped from a module but left in __all__ would break
    # `from hypersynth import *`; a name imported but not listed is unexported
    import hypersynth

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert all(hasattr(hypersynth, name) for name in hypersynth.__all__)
    assert len(hypersynth.__all__) == len(set(hypersynth.__all__))
    assert set(hypersynth.__all__) == imported
