"""What the frozen benchmark in `perfbench/` relies on, checked here so that
a change to the package that would break it fails before the benchmark
runs.  `perfbench/` is only read.

* The jobs with no independent check are pinned to SHA-256 digests of
  their output (`DIGESTS` in `perfbench/jobs.py`); the CLI must still
  print exactly those bytes.
* `perfbench/traced_cli.py` wraps the package's layers by name; it must
  still run each subcommand to the end, write its trace, and print what
  the plain CLI prints.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sscat.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# Run from source, so no bytecode cache is written next to it.
DIGESTS = runpy.run_path(str(PERFBENCH / "jobs.py"))["DIGESTS"]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_pinned_output_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


TRACED = [
    "sswcn 3 3 --symbolic",
    "triangle height 3 --rows 3",
    "bounded 3 8 20 --mod 7",
    "period 3 4 --mod 5",
    "enumerate 3 2",
    "oeis-check A015448 bounded:3,4 --terms 8 --offline",
    "verify recurrence-3-4",
]


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("command", TRACED)
def test_traced_cli_runs_and_prints_what_the_cli_prints(command, tmp_path):
    trace = tmp_path / "trace.json"
    traced = _run([str(PERFBENCH / "traced_cli.py"), str(trace), *command.split()], tmp_path)
    plain = _run(["-m", "sscat.cli", *command.split()], tmp_path)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    assert "self_s" in json.loads(trace.read_text())
