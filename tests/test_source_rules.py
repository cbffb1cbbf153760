"""Rules that hold for every module under ``src/r3dla``.

Invariants raise: ``python -O`` strips ``assert`` statements, so a check
written as one would vanish from an optimized run.  The tests themselves
use ``assert`` freely; only the package is held to the rule.

The package holds only what a run or a command reaches: each of its
definitions is named by the package or the benchmark, and what only tests
use lives in ``tests/``.
"""

import ast
import re
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


ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(qualified name, node) per top-level function, class, method and
    module constant of a module; dunders are left out."""
    out = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((top.name, top))
            if isinstance(top, ast.ClassDef):
                out += [(f"{top.name}.{node.name}", node) for node in top.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            out += [(t.id, top) for target in targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out
            if not name.rsplit(".", 1)[-1].startswith("__")]


def _references(tree):
    """(name, line) per read of a name or an attribute, per name a
    ``from`` import brings in, and per string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced_names(root=ROOT):
    """``module.name`` of each definition in ``src/r3dla`` that neither the
    package nor ``perfbench/`` names outside the definition itself.  A
    ``[project.scripts]`` entry point is reached from the command line."""
    package = sorted((root / "src" / "r3dla").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((root / "perfbench").glob("*.py"))}
    refs = {}       # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    # the function names of `name = "module:function"` lines under the table
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]")[1]
    entry_points = set(re.findall(r':(\w+)"', scripts.split("\n[")[0]))
    found = []
    for path in package:
        for qualname, node in _definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name in entry_points:
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in refs.get(name, ())):
                found.append(f"{path.stem}.{qualname}")
    return found


def test_every_definition_is_reached_from_the_package_or_perfbench():
    """A function, class, method or constant that only tests use belongs in
    ``tests/``: the package holds the machine and its commands.  A reference
    is by bare name, so a method counts as reached when any attribute of
    that name is read, as ``perfbench/tracer.py`` reads some by string."""
    found = unreferenced_names()
    assert found == [], f"referenced only by their own definition: {found}"
