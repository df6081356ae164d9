"""Import hygiene of the library modules, checked on their syntax trees.

Outside the package's __init__.py every imported name must be used in its
module, and no module may import another module's private (underscored)
name: a helper that two modules share is public in the module that owns it.
Package imports sit at module level, never inside a function body, so a
module's dependencies are all in its header. Every module-level function,
class and constant is read by some library module or re-exported by
__init__.py, so no definition lives on for the tests alone.

No module imports scipy, at any level: the runtime needs numpy alone,
and scipy is an oracle of the tests only. Only __init__.py, which holds
the heap policy set on import, imports ctypes: the library calls no other
foreign code.

A model answers for itself: outside models.py no module asks isinstance
about a class it imports from regvar.models. A closed form that holds for
one kind of model is a method of that model (gained_tail is one). A
model's table of atom directions is read in one place: outside models.py
only transforms.py reads atom_dirs or calls the atom draw _draw_atoms, so
a gain evaluated once per atom is the one user of the table. A batch's
stored points are read in one place too: outside batch.py no module reads
SampleBatch._points, so every caller goes through the points property,
which computes them for a batch that stores none.

Every `raise NotImplementedError` is bare: it marks an abstract method. A
refusal a user can meet carries a message and is a RegvarError: no module
raises a class that errors.py does not define, save NotImplementedError.
cli_main turns a RegvarError or an OSError into exit code 2 and nothing
else, so a bug keeps its traceback. No flag in cli.py has an argparse
type, which would turn a bug's TypeError or ValueError into a usage
error: one action builds every flag value. Every RegvarError subclass
that errors.py defines is raised or constructed by some other library
module, so no error type outlives its last raiser.

A scenario report is built in one place: run_scenario is the only function
that constructs a Report, so the name, n and seed a report echoes come from
the Scenario itself and no runner writes them by hand.

A bad CSV line is named in one place: cli._bad_line is the only function
that builds an f-string holding ", line ", so every reader error names the
first rejected data line by the same rule. numpy is the one judge of CSV
syntax: in cli.py only _number, the builder of a flag's number, and
_cmd_scan call float, so the reader has no number grammar of its own.

A spec is judged by the command-line parser alone: no _cmd_* function in
cli.py calls load_spec or a *_from_spec builder, so every spec flag reaches
its command as a built object and a bad one is refused before any input is
read.
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


def _packages(path):
    """(line, module) for every absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_only_through_module_level_import(path):
    """The strictest form of the rule: no import of scipy or a scipy
    submodule anywhere in the module."""
    problems = [f"line {line}: imports {name}" for line, name in _packages(path)
                if name.split(".")[0] == "scipy"]
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "models.py"],
                         ids=lambda p: p.name)
def test_no_isinstance_on_model_classes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    from_models = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level, node.module) in ((1, "models"), (0, "regvar.models"))
                   for alias in node.names}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            problems += [f"line {node.lineno}: isinstance with {k.id}" for k in kinds
                         if isinstance(k, ast.Name) and k.id in from_models]
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_not_implemented_error_is_bare(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = [f"line {node.lineno}: NotImplementedError raised with "
                "arguments; a user-facing refusal is a RegvarError"
                for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id == "NotImplementedError"]
    assert not problems, f"{path.name}: " + "; ".join(problems)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_is_a_regvar_error(path):
    """A raise names a class errors.py defines, or calls a function of its
    module annotated to return one (cli._bad_line); a bare raise re-raises."""
    errors = {node.name for node in ast.parse(
        (SRC / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = errors | {"NotImplementedError"} | {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and fn.returns is not None and ast.unparse(fn.returns) in errors}
    raised = [(node.lineno, ast.unparse(getattr(node.exc, "func", node.exc)))
              for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None]
    problems = [f"line {line}: raises {name}" for line, name in raised
                if name not in allowed]
    assert not problems, f"{path.name}: " + "; ".join(problems)


def test_cli_main_turns_only_regvar_and_os_errors_into_exit_2():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "cli_main")
    caught = [[ast.unparse(kind) for kind in (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type])]
        for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)]
    # argparse's own exit, then the one rule
    assert caught == [["SystemExit"], ["RegvarError", "OSError"]]


def test_no_flag_has_an_argparse_type():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    typed = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"
             and any(kw.arg == "type" for kw in node.keywords)]
    assert not typed, f"add_argument passes type= on lines {typed}"


def test_every_error_type_is_raised_elsewhere():
    """Every class errors.py defines below RegvarError counts as used when
    another library module calls it (raise X(...), or X(...) handed on) or
    raises it bare."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES}
    errors = {node.name for node in trees.pop("errors.py").body
              if isinstance(node, ast.ClassDef) and node.name != "RegvarError"}
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            target = node.func if isinstance(node, ast.Call) else (
                node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, ast.Name):
                raised.add(target.id)
    assert errors, "no error types found in errors.py"
    unused = sorted(errors - raised)
    assert not unused, "error types no other module raises: " + ", ".join(unused)


def _owners(tree, match):
    """(function, line) for every node that match accepts, where function
    is the innermost function around the node ("<module>" at module level)."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield owner, child.lineno
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield from visit(child, inner)
    return list(visit(tree, "<module>"))


def _owners_in_library(match):
    """(module, function) for every node in src/regvar that match accepts."""
    return [(path.name, owner) for path in MODULES
            for owner, _ in _owners(ast.parse(path.read_text(encoding="utf-8")),
                                    match)]


def test_only_run_scenario_builds_a_report():
    builders = _owners_in_library(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "Report")
    assert builders == [("scenarios.py", "run_scenario")], \
        f"Report constructed outside run_scenario: {builders}"


def test_only_bad_line_names_a_file_line():
    builders = _owners_in_library(
        lambda node: isinstance(node, ast.JoinedStr) and any(
            isinstance(part, ast.Constant) and ", line " in part.value
            for part in node.values))
    assert set(builders) == {("cli.py", "_bad_line")}, \
        f"a file line named outside cli._bad_line: {builders}"


def test_cli_reads_no_csv_cell_with_float():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    callers = {owner for owner, _ in _owners(
        tree, lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "float")}
    parsers = {"_number", "_cmd_scan"}
    assert callers <= parsers, \
        f"float called outside the command-line parsers: {callers - parsers}"


def _builds_a_spec(node) -> bool:
    """Whether node calls load_spec or a *_from_spec builder, by any name path."""
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func).rsplit(".", 1)[-1]
    return name == "load_spec" or name.endswith("_from_spec")


def test_no_command_builds_a_spec():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    builders = [(owner, line) for owner, line in _owners(tree, _builds_a_spec)
                if owner.startswith("_cmd_")]
    assert not builders, f"a command builds a spec, not the parser: {builders}"


def test_only_transforms_reads_the_atom_table():
    readers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute)
               and node.attr in ("atom_dirs", "_draw_atoms")}
    assert readers - {"models.py"} == {"transforms.py"}, \
        f"the atom table read outside models.py and transforms.py: {readers}"


def test_only_batch_reads_the_stored_points():
    readers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "_points"}
    assert readers == {"batch.py"}, \
        f"a batch's stored points read outside batch.py: {readers}"


def test_only_the_heap_policy_imports_ctypes():
    importers = {path.name for path in MODULES for _, name in _packages(path)
                 if name.split(".")[0] == "ctypes"}
    assert importers == {"__init__.py"}, \
        f"ctypes imported outside the heap policy: {importers}"
