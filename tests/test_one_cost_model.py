"""The decision of how much work is too much lives in one place: only
`errors.charge` raises `TooLargeError`, and no module but `errors` defines
a budget, limit or cap of its own."""

import ast
from pathlib import Path

import pytest

import sscat

PACKAGE = Path(sscat.__file__).parent
SUFFIXES = ("_BUDGET", "_LIMIT", "_CAP")


def _trees():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_charge_constructs_too_large_error():
    found = []
    for path, tree in _trees():
        allowed = set()
        if path.name == "errors.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "charge":
                    allowed = {id(n) for n in ast.walk(node)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) == "TooLargeError"
            and id(node) not in allowed
        ]
    assert not found, f"TooLargeError constructed outside errors.charge: {found}"


def test_no_module_but_errors_defines_a_budget():
    found = []
    for path, tree in _trees():
        if path.name == "errors.py":
            continue
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            found += [
                f"{path.name}:{node.lineno} {target.id}"
                for target in targets
                if isinstance(target, ast.Name) and target.id.endswith(SUFFIXES)
            ]
    assert not found, f"module-level budgets outside errors.py: {found}"


def test_charge_names_the_route_the_estimate_and_the_limit(monkeypatch):
    from sscat import errors

    monkeypatch.setattr(errors, "TIME_LIMIT_S", 2.0)
    monkeypatch.setattr(errors, "MEMORY_LIMIT_BYTES", 2**29)
    errors.charge("a walk", seconds=2.0, nbytes=2**29)
    for seconds, nbytes, shown in (
        (40.0, 0, "needs an estimated 40 s, over the 2 s limit"),
        (0.0, 2**30, "needs an estimated 1024 MB, over the 512 MB limit"),
        (0.0, 2**2000, "needs an estimated ~2^1980 MB, over the 512 MB limit"),
    ):
        with pytest.raises(errors.TooLargeError) as raised:
            errors.charge("the walk at (k=4, u=2000)", seconds=seconds, nbytes=nbytes)
        assert str(raised.value) == f"the walk at (k=4, u=2000) {shown}"
