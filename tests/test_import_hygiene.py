"""Import hygiene of the library modules, checked on their syntax trees.

Outside the package's __init__.py every imported name must be used in its
module, and no module may import another module's private (underscored)
name: a helper that two modules share is public in the module that owns it.
Package imports sit at module level, never inside a function body, so a
module's dependencies are all in its header. Every module-level function,
class and constant is read by some library module or re-exported by
__init__.py, so no definition lives on for the tests alone.

No module imports scipy, at any level: the runtime needs numpy alone,
and scipy is an oracle of the tests only.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regvar"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(bound name, imported name, line, from regvar?) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield alias.asname or top, alias.name, node.lineno, top == "regvar"
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            internal = node.level > 0 or (node.module or "").startswith("regvar")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno, internal


def test_library_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_or_private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    problems = []
    for bound, name, line, internal in _imports(tree):
        if internal and name.startswith("_"):
            problems.append(f"line {line}: private name {name} imported "
                            "from another module")
        if path.name != "__init__.py" and bound not in used:
            problems.append(f"line {line}: {bound} is imported but unused")
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    problems = sorted(
        {f"line {line}: {name} imported inside a function"
         for fn in ast.walk(tree) if isinstance(fn, functions)
         for _, name, line, internal in _imports(fn) if internal})
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_only_through_module_level_import(path):
    """The strictest form of the rule: no import of scipy or a scipy
    submodule anywhere in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        problems += [f"line {node.lineno}: imports {name}" for name in names
                     if name.split(".")[0] == "scipy"]
    assert not problems, f"{path.name}: " + "; ".join(problems)


def _module_level_definitions(tree):
    """(name, node) for every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _reads(node):
    """How often each name is read (not stored) anywhere under node."""
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))


def test_every_definition_is_used_or_exported():
    """A module-level definition is read by some library module outside its
    own definition, or re-exported by the package's __init__.py; anything
    else is reachable only from tests and is dead library code. The reads
    of all modules are counted once; a definition is unused when every read
    of its name lies inside its own node."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    exported = {bound for bound, _, _, _ in _imports(trees["__init__.py"])}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    problems = [f"{module}: {name}" for module, tree in trees.items()
                for name, definition in _module_level_definitions(tree)
                if reads[name] == _reads(definition)[name] and name not in exported]
    assert not problems, "defined but never used: " + ", ".join(problems)
