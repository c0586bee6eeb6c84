"""The package depends on numpy alone: its modules import the standard
library, numpy and the package itself, nothing else."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperspectra"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hyperspectra"}
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_numpy(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            assert name.partition(".")[0] in ALLOWED, \
                f"{path.name}:{node.lineno} imports {name}"


def _module_imports(tree):
    """(bound name, line) of each module-level import but `__future__`."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    # __init__.py is exempt: its imports are the package's re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in _module_imports(tree)
              if name not in used]
    assert not unused, f"imported but never used: {', '.join(unused)}"



def test_every_private_function_is_called():
    # a module-level `_name` def or class is referenced, as a name or an
    # attribute, by some other top-level statement of the package
    statements = []  # (module path, top-level statement, names it references)
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            statements.append((path, stmt, names))
    uncalled = [f"{path.name}:{stmt.lineno} {stmt.name}" for path, stmt, _ in statements
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_") and not stmt.name.startswith("__")
                and not any(stmt.name in names for _, other, names in statements
                            if other is not stmt)]
    assert not uncalled, f"defined but never referenced: {', '.join(uncalled)}"


def test_flow_arcs_only_in_maxflow():
    # the arc layout of a FlowNetwork is maxflow.py's own: no other module
    # reads or writes `adj` or `outflow`
    touched = [f"{path.name}:{node.lineno} .{node.attr}"
               for path in MODULES if path.name != "maxflow.py"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Attribute) and node.attr in ("adj", "outflow")]
    assert not touched, f"flow arcs used outside maxflow.py: {', '.join(touched)}"
