"""Import hygiene of the library modules, checked on their syntax trees.

Outside the package's __init__.py every imported name must be used in its
module, and no module may import another module's private (underscored)
name: a helper that two modules share is public in the module that owns it.
Package imports sit at module level, never inside a function body, so a
module's dependencies are all in its header.

scipy is reached only through a module-level `import scipy`, and its
submodules only as attributes (`scipy.integrate.quad`). `import scipy`
loads the package's small core; scipy's package `__getattr__` imports a
submodule on its first attribute access. No module header may therefore
load `scipy.integrate` or `scipy.special`: `from scipy import ...`,
`from scipy.<sub> import ...` and `import scipy.<sub>` are all rejected,
so a process that never integrates or evaluates a zeta function never
pays for loading them.
"""

import ast
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
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top_level = {id(node) for node in tree.body}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "scipy":
            problems.append(f"line {node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "scipy":
                    continue
                if alias.name != "scipy":
                    problems.append(f"line {node.lineno}: import {alias.name}")
                elif id(node) not in top_level:
                    problems.append(f"line {node.lineno}: import scipy "
                                    "below module level")
    assert not problems, f"{path.name}: " + "; ".join(problems)
