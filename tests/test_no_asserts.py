"""Control flow in the package never relies on `assert`, which `python -O`
strips: invariants are checked with explicit raises."""

import ast
from pathlib import Path

import sscat

PACKAGE = Path(sscat.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
