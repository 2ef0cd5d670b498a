"""Every import in the package is used where it is made: an unused one is
dead weight at start-up and hides what a module depends on.  A module-level
import must be used somewhere in its module, and an import inside a
function (as the CLI's handlers make them) somewhere in that function.
`from __future__` imports and `__init__.py` are exempt.  A name counts as
used wherever it appears as a name in the code, annotations included."""

import ast
from pathlib import Path

import sscat

PACKAGE = Path(sscat.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports_in(scope):
    """The import statements of *scope*, outside the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    for scope in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _imports_in(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            else:
                bound = [a.asname or a.name for a in node.names]
            for name in bound:
                if name not in used:
                    yield f"{path.name}:{node.lineno} {name}"


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    found = [entry for path in modules for entry in _unused_imports(path)]
    assert not found, f"unused imports in the package: {found}"
