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
# exact `bounded` route would cost every run their import; argparse, with
# the gettext and locale it loads, cost each command about 5 ms of CPU.
UNUSED = {
    "argparse",
    "gettext",
    "locale",
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


# Each command, and the package modules it runs besides `sscat.cli` and
# `sscat.counting`.
RUNS = [
    (["period", "3", "4", "--mod", "5"], set()),
    (["count", "2", "1"], set()),
    # past RECURRENCE_FROM * S terms, exact or mod m: the recurrence route
    (["bounded", "3", "30", "300"], {"sscat.linrec"}),
    (["bounded", "3", "30", "300", "--mod", "7"], {"sscat.linrec"}),
    # the symbolic JSON form is written without the json module
    (["sswcn", "3", "2", "--symbolic", "--format", "json"], set()),
    # the options of the benchmark's jobs, each read without argparse
    (["bounded", "4", "24", "1000", "--b", "2,1,3", "--c", "1,2"], {"sscat.linrec"}),
    (["sswcn", "3", "5", "--b", "2,1,3", "--c", "1,4"], set()),
    (
        ["oeis-check", "A015448", "bounded:3,4", "--terms", "20", "--offline"],
        {"sscat.oeis", "sscat.linrec"},
    ),
    (["triangle", "height", "4", "--rows", "5"], {"sscat.triangles", "sscat.backend"}),
    (
        ["scan-pow2", "--k-max", "7", "--u-max", "20", "--n-max", "8"],
        {"sscat.triangles", "sscat.backend", "sscat.linrec"},
    ),
]


@pytest.mark.parametrize(
    "argv, runs", [pytest.param(argv, runs, id=" ".join(argv)) for argv, runs in RUNS]
)
def test_a_command_loads_only_what_it_runs(argv, runs):
    loaded = _modules_after(f"from sscat.cli import main\nmain({json.dumps(argv)})")
    assert {"sscat.counting", *runs} <= loaded
    assert not loaded & (UNUSED - runs), sorted(loaded & (UNUSED - runs))
    # only the recurrence route loads the module of linear recurrences
    assert ("sscat.linrec" in loaded) == ("sscat.linrec" in runs), argv


def test_python_m_sscat_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "sscat", "count", "3", "4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "462\n", "")
    # The CLI ends its process without returning to a probe, so the module
    # names are read from the imports that -X importtime lists on stderr.
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sscat", "count", "2", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines[1:]}
    assert {"sscat.cli", "sscat.counting"} <= loaded
    assert not loaded & UNUSED, sorted(loaded & UNUSED)


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
