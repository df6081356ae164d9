"""Import hygiene of the library modules, checked on their syntax trees.

Outside the package's __init__.py every imported name must be used in its
module, and no module may import another module's private (underscored)
name: a helper that two modules share is public in the module that owns it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "regvar"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(bound name, imported name, line, relative?) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, node.lineno, False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            relative = node.level > 0 or (node.module or "").startswith("regvar")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno, relative


def test_library_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_or_private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    problems = []
    for bound, name, line, relative in _imports(tree):
        if relative and name.startswith("_"):
            problems.append(f"line {line}: private name {name} imported "
                            "from another module")
        if path.name != "__init__.py" and bound not in used:
            problems.append(f"line {line}: {bound} is imported but unused")
    assert not problems, f"{path.name}: " + "; ".join(problems)
