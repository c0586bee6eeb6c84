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
