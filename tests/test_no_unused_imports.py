"""Every module-level import in the package is used by its module: an
unused one is dead weight at start-up and hides what a module depends on.
`from __future__` imports and the re-exports of `__init__.py` are exempt.
A name counts as used wherever it appears as a name in the module's code,
annotations included."""

import ast
from pathlib import Path

import sscat

PACKAGE = Path(sscat.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in bound:
            if name not in used:
                yield f"{path.name}:{node.lineno} {name}"


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    found = [entry for path in modules for entry in _unused_imports(path)]
    assert not found, f"unused imports in the package: {found}"
