"""Rules that hold for every module under ``src/r3dla``.

Invariants raise: ``python -O`` strips ``assert`` statements, so a check
written as one would vanish from an optimized run.  The tests themselves
use ``assert`` freely; only the package is held to the rule.
"""

import ast
from pathlib import Path

import r3dla


def test_no_assert_statements_in_the_package():
    sources = sorted(Path(r3dla.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"engine.py", "uisa.py", "cli.py"}
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements (stripped by python -O): {found}"


def test_only_run_many_runs_a_config():
    """``cli._run_config`` is named in one place, a call in ``cli.run_many``:
    a command that runs configs goes through it and grows no run loop of
    its own."""
    tree = ast.parse((Path(r3dla.__file__).parent / "cli.py").read_text())
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = [(top.name if isinstance(top, ast.FunctionDef) else "<module>",
             id(node) in called)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == "_run_config"]
    assert uses == [("run_many", True)], f"(function, is a call): {uses}"
