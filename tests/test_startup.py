"""The CLI starts with only what its subcommand runs: `import sscat` loads
no submodule, and a command loads neither the package's unrelated modules
nor the heavy standard-library ones.  Each case runs in a fresh
interpreter, since this test session has imported everything already."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import sscat

SRC = os.path.dirname(os.path.dirname(sscat.__file__))

# Loaded by none of the commands below.  A `Fraction` or `Decimal` in the
# exact `bounded` route would cost every run their import.
UNUSED = {
    "dataclasses",
    "decimal",
    "fractions",
    "inspect",
    "json",
    "sscat.triangles",
    "sscat.oeis",
    "sscat.syt",
    "sscat.backend",
}


def _modules_after(code):
    """The names in sys.modules after running *code* in a fresh
    interpreter that has the package on its path; they are printed after
    whatever *code* prints."""
    probe = f"{code}\nimport sys\nprint('--modules--', *sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split("--modules--")[-1].split())


def test_import_sscat_loads_no_submodule():
    loaded = _modules_after("import sscat")
    assert "sscat" in loaded
    assert not {m for m in loaded if m.startswith("sscat.")}


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "3", "4", "--mod", "5"],
        ["count", "2", "1"],
        # past RECURRENCE_FROM * S terms, exact or mod m: the recurrence route
        ["bounded", "3", "30", "300"],
        ["bounded", "3", "30", "300", "--mod", "7"],
        # the symbolic JSON form is written without the json module
        ["sswcn", "3", "2", "--symbolic", "--format", "json"],
    ],
    ids=" ".join,
)
def test_a_command_loads_only_what_it_runs(argv):
    loaded = _modules_after(f"from sscat.cli import main\nmain({json.dumps(argv)})")
    assert "sscat.counting" in loaded
    assert not loaded & UNUSED, sorted(loaded & UNUSED)
    # only the recurrence route loads the module of linear recurrences
    assert ("sscat.linrec" in loaded) == (argv[0] == "bounded"), argv


def test_every_export_is_its_defining_module_attribute():
    assert sscat.__all__ and len(set(sscat.__all__)) == len(sscat.__all__)
    for name in sscat.__all__:
        module = import_module(f"sscat.{sscat._EXPORTS[name]}")
        value = getattr(sscat, name)
        assert value is getattr(module, name), name
        owner = getattr(value, "__module__", module.__name__)
        assert owner == module.__name__, (name, owner)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sscat, "no_such_name")
