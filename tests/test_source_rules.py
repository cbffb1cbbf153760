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
