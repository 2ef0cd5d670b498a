import argparse
import errno
import io
import json
import os
import random
import resource
import runpy
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscat import (
    FormulaViolationError,
    WeightAssignment,
    WeightPolynomial,
    bounded_sswcn_dp,
    cli,
    counting,
    enumerate_paths,
    oeis,
    paths,
    periodicity,
    sswcn_lattice,
    syt,
    triangles,
    weights,
)
from sscat.cli import (
    FORMATS,
    _cmd_bounded,
    _cmd_count,
    _cmd_enumerate,
    _cmd_oeis_check,
    _cmd_period,
    _cmd_scan_pow2,
    _cmd_sswcn,
    _cmd_syt,
    _cmd_triangle,
    _cmd_verify,
    _decimal_text,
    _parse_weight_sequence,
    main,
)
from tests.conftest import json_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, *argv):
    """`run`, with argparse's usage errors read as their exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_parse_weight_sequence():
    assert _parse_weight_sequence(None) == ((), 1)
    assert _parse_weight_sequence("1,0,2") == ((1, 0, 2), 1)
    assert _parse_weight_sequence("1,0,2,fill=0") == ((1, 0, 2), 0)
    assert _parse_weight_sequence("fill=-3") == ((), -3)
    with pytest.raises(ValueError):
        _parse_weight_sequence("fill=2,1")
    with pytest.raises(ValueError):
        _parse_weight_sequence("1,x")
    with pytest.raises(ValueError):
        _parse_weight_sequence("fill=x")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("bounded", "3", "4", "2", "--b", "1,x"),
            "argument --b: weight sequence elements must be integers, got 'x'",
        ),
        (
            ("period", "3", "4", "--mod", "5", "--c", "fill=x"),
            "argument --c: weight sequence elements must be integers, got 'fill=x'",
        ),
        (
            ("sswcn", "3", "2", "--b", "1,,2"),
            "argument --b: weight sequence elements must be integers, got ''",
        ),
    ],
)
def test_malformed_weights_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as raised:
        main(list(argv))
    captured = capsys.readouterr()
    assert raised.value.code == 2 and not captured.out
    assert message in captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "3", "2")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "count", "3", "2", "--format", "json")
    assert json.loads(out)["count"] == "5"
    code, out, _ = run(capsys, "count", "3", "2", "--format", "csv")
    assert out == "k,n,count\n3,2,5\n"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "2")
    assert code == 0 and len(out.strip().splitlines()) == 5
    code, out, _ = run(capsys, "enumerate", "3", "2", "--bound", "2")
    assert out.strip().splitlines() == ["1 2 3 1 2 3"]
    code, out, _ = run(capsys, "enumerate", "3", "2", "--format", "json")
    assert len(json.loads(out)) == 5
    assert out == json.dumps([list(steps) for steps in enumerate_paths(3, 2)]) + "\n"


def test_enumerate_prints_each_path_as_it_is_found(capsys, monkeypatch):
    def three_then_fail(k, n, height_bound=None):
        yield from islice(enumerate_paths(k, n, height_bound), 3)
        raise RuntimeError("stopped after three paths")

    monkeypatch.setattr(paths, "enumerate_paths", three_then_fail)
    first = [list(steps) for steps in islice(enumerate_paths(3, 2), 3)]
    lines = "".join(" ".join(map(str, steps)) + "\n" for steps in first)
    expected = {
        "plain": lines,
        "csv": "steps\n" + lines,
        "json": "[" + ", ".join(json.dumps(steps) for steps in first),
    }
    for fmt, printed in expected.items():
        with pytest.raises(RuntimeError):
            main(["enumerate", "3", "2", "--format", fmt])
        assert capsys.readouterr().out == printed, fmt


def test_enumerate_builds_no_path_objects(capsys, monkeypatch):
    # The DFS yields ballot walks only, so printing them needs no second
    # check by `BallotPath`.
    built = []
    init = paths.BallotPath.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(paths.BallotPath, "__init__", counted)
    assert main(["enumerate", "4", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 462
    assert built == []


def test_bounded_with_weights(capsys):
    code, out, _ = run(capsys, "bounded", "3", "5", "4", "--b", "2,fill=2")
    # a(n) = 8 a(n-1) + 4 a(n-2) from a(0)=1, a(1)=2 gives 20, 168, 1424
    assert code == 0 and out.strip() == "1424"
    code, out, _ = run(capsys, "bounded", "3", "4", "5", "--b", "2,fill=2")
    assert out.strip() == "12064"
    code, out, _ = run(capsys, "bounded", "3", "4", "4", "--mod", "100")
    assert out.strip() == "89"


class Computed(Exception):
    """Raised by a compute function that a test forbids to run."""


def _forbid(*args, **kwargs):
    raise Computed


# Each subcommand with a small argv, the function that computes its
# answer (in the module the CLI imports it from when it runs), and the
# formats it prints.
FORMAT_CASES = [
    (("enumerate", "3", "2"), (paths, "enumerate_paths"), cli.FORMATS),
    (("count", "3", "2"), (counting, "catalan_number"), cli.FORMATS),
    (("bounded", "3", "4", "5", "--mod", "7"), (counting, "bounded_sswcn_dp"), cli.FORMATS),
    (("sswcn", "3", "2"), (counting, "sswcn_lattice_value"), cli.FORMATS),
    (("sswcn", "3", "2", "--symbolic"), (counting, "sswcn_lattice"), ("plain", "json")),
    (
        ("triangle", "height", "3", "--rows", "2"),
        (triangles, "triangle_rows"),
        cli.FORMATS,
    ),
    (
        ("period", "3", "8", "--mod", "101"),
        (periodicity, "detect_eventual_period"),
        ("plain", "json"),
    ),
    (("verify",), (triangles, "run_verifiers"), ("plain", "json")),
    (
        ("oeis-check", "A015448", "bounded:3,4", "--terms", "5", "--offline"),
        (oeis, "fetch_bfile"),
        ("plain", "json"),
    ),
    (("syt", "tally", "1,2,4/3,5,6"), (syt, "tally"), ("plain", "json")),
    (
        ("scan-pow2", "--k-max", "4", "--u-max", "6"),
        (triangles, "scan_power_of_two"),
        ("plain", "json"),
    ),
]


@pytest.mark.parametrize(
    "argv,compute,formats", FORMAT_CASES, ids=[" ".join(c[0]) for c in FORMAT_CASES]
)
def test_each_subcommand_accepts_exactly_the_formats_it_prints(
    capsys, monkeypatch, tmp_path, argv, compute, formats
):
    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))
    for fmt in formats:
        code, out, err = exit_code(capsys, *argv, "--format", fmt)
        assert code == 0 and out.strip() and not err, fmt
    monkeypatch.setattr(*compute, _forbid)
    with pytest.raises(Computed):  # the patched function is the one used
        main([*argv, "--format", formats[0]])
    capsys.readouterr()
    for fmt in set(cli.FORMATS) - set(formats):
        code, out, err = exit_code(capsys, *argv, "--format", fmt)
        assert code == 2 and not out and "error" in err, fmt


def test_sswcn_symbolic_builds_only_the_printed_form(capsys, monkeypatch):
    for fmt, unprinted in (("plain", "json_pieces"), ("json", "text_pieces")):
        with monkeypatch.context() as patch:
            patch.setattr(WeightPolynomial, unprinted, _forbid)
            code, out, _ = run(capsys, "sswcn", "3", "2", "--symbolic", "--format", fmt)
        assert code == 0 and out.strip(), fmt


@pytest.mark.parametrize(
    "argv,read",
    [
        (("enumerate", "4", "4"), lambda stdout: stdout.readline()),
        # the polynomial is one 444 kB line: read a few bytes of it
        (("sswcn", "4", "4", "--symbolic"), lambda stdout: stdout.read(10)),
    ],
    ids=["enumerate", "sswcn-symbolic"],
)
def test_closed_stdout_ends_quietly(argv, read):
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sscat.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert read(proc.stdout)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""


def _child_env():
    """The environment of a child CLI: the package on its path, 80-column
    help, and a buffered stdout, as a shell starts it."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=package_root, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _python(*args, **streams):
    """A child `python *args*` in `_child_env`, its stdout and stderr read
    as text."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run(
        [sys.executable, *args], env=_child_env(), text=True, timeout=60, **streams
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(argv, code, id=" ".join(argv))
        for argv, code in (
            (("count", "3", "4"), 0),
            # 24,024 lines, far more than the stdio buffer holds
            (("enumerate", "4", "4"), 0),
            (("verify", "all"), 0),
            (("bounded", "3", "30", "1000000"), 2),  # refused by its budget
            (("count", "3"), 2),  # argparse's usage error
            (("-h",), 0),
        )
    ],
)
def test_each_script_entry_prints_what_main_prints(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    expected = exit_code(capsys, *argv)
    assert expected[0] == code and (expected[1] or expected[2])
    for module in ("sscat.cli", "sscat"):
        done = _python("-m", module, *argv)
        assert (done.returncode, done.stdout, done.stderr) == expected, module


# The CLI's script entry, after what *setup* makes.
_RUN_PROBE = """\
import atexit, sys
{setup}
sys.argv = ["sscat", "count", "2", "1"]
from sscat.cli import main, run
{call}
"""


def test_run_keeps_the_exit_callbacks():
    setup = "atexit.register(print, 'marker', file=sys.stderr)"
    done = _python("-c", _RUN_PROBE.format(setup=setup, call="run()"), stderr=subprocess.STDOUT)
    assert (done.returncode, done.stdout) == (0, "1\nmarker\n")


def test_run_skips_the_interpreter_teardown():
    setup = (
        "class Witness:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('finalized\\n')\n"
        "witness = Witness()"
    )
    # a teardown finalizes the module-level witness ...
    done = _python("-c", _RUN_PROBE.format(setup=setup, call="sys.exit(main())"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "finalized\n")
    # ... and `run` ends the process before any
    done = _python("-c", _RUN_PROBE.format(setup=setup, call="run()"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize(
    "argv, target, error",
    [
        (("count", "2", "1"), "/dev/full", errno.ENOSPC),
        # written while the paths are found, not only by the last flush
        (("enumerate", "4", "4"), "/dev/full", errno.ENOSPC),
        (("count", "2", "1"), None, errno.EBADF),  # started with fd 1 closed
    ],
    ids=["count-full", "enumerate-full", "count-closed"],
)
def test_an_unwritable_stdout_is_refused(argv, target, error):
    if target is None:
        streams = {"stdout": None, "preexec_fn": _close_stdout}
    elif os.path.exists(target):
        streams = {"stdout": open(target, "w")}
    else:
        pytest.skip(f"no {target}")
    try:
        for module in ("sscat.cli", "sscat"):
            done = _python("-m", module, *argv, **streams)
            assert done.returncode == 2, module
            assert done.stderr == f"error: cannot write the output: {os.strerror(error)}\n"
    finally:
        if streams["stdout"] is not None:
            streams["stdout"].close()


@pytest.mark.parametrize("argv", [("count", "2", "1"), ("enumerate", "4", "4")], ids=" ".join)
def test_a_reader_gone_before_the_run_is_a_normal_end(argv):
    # what the buffer still holds must not fail again at the last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python("-m", "sscat", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_a_file_that_cannot_be_read_is_not_an_output_error(capsys, monkeypatch):
    def unreadable(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", "b015448.txt")

    monkeypatch.setattr(oeis, "fetch_bfile", unreadable)
    with pytest.raises(PermissionError):
        main(["oeis-check", "A015448", "bounded:3,4", "--offline"])
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv, route",
    [
        pytest.param(argv, route, id=" ".join(argv))
        for argv, route in (
            (["bounded", "3", "30", "1000000"], b"the bounded run at (k=3, u=30)"),
            (["triangle", "height", "6", "--rows", "14"], b"the height triangle (k=6"),
            (["triangle", "height", "2", "--rows", "212"], b"the height triangle (k=2"),
            (["sswcn", "3", "3000"], b"the numeric lattice walk at (k=3, n=3000)"),
            (["count", "3", "200000"], b"the Catalan number (k=3, n=200000)"),
            (["enumerate", "6", "6"], b"enumerating the paths of (k=6, n=6)"),
            (["enumerate", "3", "40", "--bound", "4"], b"of height <= 4"),
            (
                ["oeis-check", "A001246", "rightmost:6", "--offline", "--terms", "14"],
                b"the height triangle (k=6",
            ),
        )
    ]
    + [
        # a single residue is charged per bit of n, and more for a long m
        pytest.param(
            ["bounded", "3", "30", str(2**13999), "--mod", str(2**340)],
            b"the bounded run at (k=3, u=30)",
            id="bounded 3 30 2^13999 --mod 2^340",
        )
    ],
)
def test_exact_bounded_past_its_budget_exits_2_at_once(argv, route):
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "sscat.cli", *argv],
        capture_output=True,
        env=env,
        timeout=60,
        preexec_fn=limit_address_space,
    )
    assert time.monotonic() - start < 5
    assert done.returncode == 2 and done.stdout == b""
    assert route in done.stderr and b"over the 2 s limit" in done.stderr


def test_sswcn_symbolic_and_numeric(capsys):
    code, out, _ = run(capsys, "sswcn", "3", "2", "--symbolic")
    assert "B0^2*C2^2*C0^2" in out
    code, out, _ = run(capsys, "sswcn", "3", "2")
    assert out.strip() == "5"


@pytest.mark.parametrize("k,n", [(2, 0), (3, 2), (4, 3)])
def test_sswcn_symbolic_json_is_written_term_by_term(capsys, k, n):
    code, out, _ = run(capsys, "sswcn", str(k), str(n), "--symbolic", "--format", "json")
    assert code == 0
    assert out == json_document(k, n, sswcn_lattice(k, n)) + "\n"


def test_sswcn_symbolic_json_prints_each_term_as_it_is_made(capsys, monkeypatch):
    pieces = list(sswcn_lattice(3, 2).json_pieces())

    def two_then_fail(poly):
        yield from pieces[:2]
        raise RuntimeError("stopped after two terms")

    monkeypatch.setattr(WeightPolynomial, "json_pieces", two_then_fail)
    with pytest.raises(RuntimeError):
        main(["sswcn", "3", "2", "--symbolic", "--format", "json"])
    whole = json_document(3, 2, sswcn_lattice(3, 2))
    printed = capsys.readouterr().out
    assert printed == whole[: len(printed)] and printed.count('"coeff"') == 2


def test_sswcn_symbolic_refuses_past_the_path_cap(capsys):
    # the walk is refused without the path count, which at these sizes has
    # thousands of digits
    for k, n in ((3, 2500), (3, 3100), (3, 32000), (2, 200000)):
        code, out, err = run(capsys, "sswcn", str(k), str(n), "--symbolic")
        assert code == 2 and not out
        assert err.startswith(f"error: the symbolic lattice walk at (k={k}, n={n}) needs ")
        assert err.endswith(" s, over the 2 s limit\n")


def test_triangle(capsys):
    code, out, _ = run(capsys, "triangle", "height", "3", "--rows", "2")
    assert code == 0 and "2:1 4:4" in out
    code, out, _ = run(capsys, "triangle", "narayana", "3", "--rows", "2", "--format", "csv")
    assert out.splitlines()[0] == "k,n,stat,count"
    assert "3,2,1,1" in out.splitlines()
    code, out, _ = run(capsys, "triangle", "height", "3", "--rows", "1", "--format", "json")
    assert json.loads(out)[1]["entries"] == {"2": "1"}


def test_period(capsys):
    code, out, _ = run(capsys, "period", "3", "4", "--mod", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["modulus"] == 5 and report["scalar_period"] >= 1


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "min-u-formulas")
    assert code == 0 and out.startswith("ok ")
    code, out, err = run(capsys, "verify", "no-such-family")
    assert code == 2 and "unknown verifier" in err
    # `verify --help` does not list the families; this error does
    assert all(name in err for name in triangles.ALL_VERIFIERS)


def test_oeis_check(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "oeis-check", "A015448", "bounded:3,4",
        "--terms", "13", "--offline", "--cache-dir", str(tmp_path),
    )
    assert code == 0 and "match" in out
    # a deliberately wrong generator must exit 1 and say MISMATCH
    code, out, _ = run(
        capsys,
        "oeis-check", "A015448", "catalan:3",
        "--terms", "5", "--offline", "--cache-dir", str(tmp_path),
    )
    assert code == 1 and "MISMATCH" in out


def test_oeis_check_bounded_evaluates_the_matrix_once(capsys, monkeypatch, tmp_path):
    calls = []
    evaluated = counting.TransferMatrix.evaluated

    def counted(self, *args, **kwargs):
        calls.append(self.space.k)
        return evaluated(self, *args, **kwargs)

    monkeypatch.setattr(counting.TransferMatrix, "evaluated", counted)
    code, out, _ = run(
        capsys,
        "oeis-check", "A015448", "bounded:3,4",
        "--terms", "20", "--offline", "--cache-dir", str(tmp_path),
    )
    assert out == "A015448 vs bounded:3,4: match over 20 terms\n"
    assert code == 0 and calls == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ("bounded", "3", "30", "2000"),
        ("period", "3", "8", "--mod", "47"),
        ("scan-pow2", "--k-max", "5", "--u-max", "8"),
        ("verify", "recurrence-3-4"),
        ("oeis-check", "A015448", "bounded:3,4", "--offline", "--terms", "20"),
    ],
    ids=" ".join,
)
def test_counting_commands_build_no_polynomial(monkeypatch, capsys, tmp_path, argv):
    # The transfer matrix is walked at the weights of the run: no entry is
    # a polynomial, however the caches were filled before.
    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))  # only the bundled b-files
    counting._transfer_matrix.cache_clear()
    counting.build_state_space.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a counting route built a polynomial")

    for module in (weights, counting):
        monkeypatch.setattr(module, "tag_polynomial", refuse)
    monkeypatch.setattr(weights.WeightPolynomial, "__init__", refuse)
    assert main(list(argv)) == 0, capsys.readouterr().err


def test_syt(capsys):
    code, out, _ = run(capsys, "syt", "path-to-tableau", "1,2,3", "--k", "3")
    assert code == 0 and out.splitlines() == ["1", "2", "3"]
    code, out, _ = run(capsys, "syt", "tableau-to-path", "1,2,4,7/3,5,6,8/9,10,11,12")
    assert out.strip() == "1,1,2,1,2,2,1,2,3,3,3,3"
    code, out, _ = run(capsys, "syt", "tally", "1,2,4,7/3,5,6,8/9,10,11,12")
    assert out.strip() == "3"
    code, _, err = run(capsys, "syt", "tally", "2,1")
    assert code == 2 and "error" in err


def test_scan_pow2(capsys):
    code, out, _ = run(capsys, "scan-pow2", "--k-max", "4", "--u-max", "6")
    assert code == 0 and "k=4 u=6" in out


def test_invalid_arguments_exit_2(capsys):
    code, _, err = run(capsys, "count", "0", "2")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "bounded", "1", "4", "2")
    assert code == 2
    for argv in (
        ("bounded", "3", "-1", "2"),
        ("period", "3", "-1", "--mod", "5"),
        ("enumerate", "3", "2", "--bound", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "height bound must be >= 0" in err
    for argv in (
        ("bounded", "3", "4", "-3"),
        ("bounded", "3", "4", "2", "--mod", "0"),
        ("bounded", "3", "4", "2", "--mod", "-5"),
        ("enumerate", "3", "-1"),
        ("triangle", "height", "3", "--rows", "-1"),
        ("scan-pow2", "--k-max", "3", "--u-max", "3", "--n-max", "0"),
        ("scan-pow2", "--n-max", "-1"),
        ("sswcn", "3", "2", "--symbolic", "--b", "5,fill=7"),
        ("sswcn", "3", "2", "--symbolic", "--c", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error: ")
        if "--symbolic" in argv:
            assert "--b and --c do not apply to sswcn --symbolic" in err
    # a bound below the minimum attainable height is not an error: there
    # are simply no paths
    code, out, _ = run(capsys, "bounded", "3", "1", "2")
    assert code == 0 and out.strip() == "0"


def test_formula_violation_exits_1_with_details(capsys, monkeypatch):
    def fail(*args):
        raise FormulaViolationError("broken", expected=5, actual=6, witness=(3, 2))

    monkeypatch.setattr(triangles, "run_verifiers", fail)
    monkeypatch.setattr(counting, "catalan_number", fail)
    for argv in (("verify", "all"), ("count", "3", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err == "FAIL: broken (expected 5, got 6, witness (3, 2))\n"


@contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_text_matches_str():
    values = (0, 7, -7, 10**600 - 1, 10**600, 10**1200 + 1, -(3**5000), 10**5000)
    texts = [_decimal_text(v) for v in values]
    with unlimited_int_digits():
        assert texts == [str(v) for v in values]


def test_answers_beyond_the_int_digit_limit(capsys):
    # about 4,640 digits, above Python's default 4,300-digit limit, which
    # stays in force while the CLI runs
    argv = ["bounded", "3", "4", "700", "--b", "1000000,fill=1000000"]
    outputs = {}
    for fmt in ("plain", "json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and not err
        outputs[fmt] = out
    value = bounded_sswcn_dp(3, 4, 700, WeightAssignment((), 1000000))
    with unlimited_int_digits():
        assert len(str(value)) > 4300
        assert outputs["plain"] == f"{value}\n"
        assert json.loads(outputs["json"])["value"] == str(value)
        assert outputs["csv"] == f"k,u,n,mod,value\n3,4,700,,{value}\n"


# The exit-code contract, driven with argv drawn from a small grammar:
# every command ends with exit 0, or with exit 2, nothing on stdout and an
# error on stderr.  Sizes stay small enough for 500 runs in about 2 s.
SMALL_INT = st.integers(-2, 5).map(str)
TINY_INT = st.integers(-2, 3).map(str)
TINY_K = st.integers(-2, 4).map(str)
MODULUS = st.integers(-2, 12).map(str)
WEIGHTS = st.lists(
    st.sampled_from(("1", "-2", "0", "x", "", "fill=2", "fill=x")),
    min_size=1,
    max_size=3,
).map(",".join)


def _maybe(*parts):
    """Either nothing, or the argv fragment drawn from *parts*."""
    return st.one_of(st.just(()), st.tuples(*parts))


def _command(name, *parts):
    """The argv `name` followed by one fragment from each of *parts*."""
    return st.tuples(st.just((name,)), *parts).map(lambda groups: sum(groups, ()))


FORMAT = _maybe(st.just("--format"), st.sampled_from(cli.FORMATS))
WEIGHTS_AND_FORMAT = st.tuples(
    _maybe(WEIGHTS.map("--b={}".format)),
    _maybe(WEIGHTS.map("--c={}".format)),
    FORMAT,
).map(lambda groups: sum(groups, ()))


ARGV = st.one_of(
    _command("count", st.tuples(SMALL_INT, SMALL_INT), FORMAT),
    _command(
        "bounded",
        st.tuples(SMALL_INT, SMALL_INT, SMALL_INT),
        _maybe(st.just("--mod"), MODULUS),
        WEIGHTS_AND_FORMAT,
    ),
    _command(
        "period",
        st.tuples(SMALL_INT, SMALL_INT, st.just("--mod"), MODULUS),
        WEIGHTS_AND_FORMAT,
    ),
    _command(
        "sswcn",
        st.tuples(TINY_K, TINY_INT),
        _maybe(st.just("--symbolic")),
        WEIGHTS_AND_FORMAT,
    ),
    _command(
        "enumerate",
        st.tuples(TINY_K, TINY_INT),
        _maybe(st.just("--bound"), SMALL_INT),
        FORMAT,
    ),
    _command(
        "triangle",
        st.tuples(st.sampled_from(("height", "narayana")), TINY_K),
        st.tuples(st.just("--rows"), TINY_INT),
        FORMAT,
    ),
    _command(
        "scan-pow2",
        st.tuples(st.just("--k-max"), SMALL_INT, st.just("--u-max"), SMALL_INT),
        st.tuples(st.just("--n-max"), SMALL_INT),
        FORMAT,
    ),
    _command(
        "syt",
        st.tuples(
            st.sampled_from(("path-to-tableau", "tableau-to-path", "tally")),
            st.sampled_from(
                ("", "1,2", "1,2/x", "0", "1,2,3", "1,2/3,4", "1,1,2,2", "2,1", "1/2")
            ),
        ),
        _maybe(st.just("--k"), TINY_K),
        FORMAT,
    ),
    _command(
        "verify",
        st.tuples(
            st.sampled_from((*sorted(triangles.ALL_VERIFIERS), "all", "no-such-name"))
        ),
        FORMAT,
    ),
    # --terms stays within the shortest bundled b-file (16 terms)
    _command(
        "oeis-check",
        st.tuples(
            st.one_of(
                st.sampled_from(("A000108", "A015448", "A274969", "A001246")),
                st.sampled_from(("A999999", "X1")),
            ),
            st.one_of(
                st.sampled_from(("dprime-3-2n", "bounded:3", "catalan:x", "nope:1")),
                st.tuples(st.sampled_from(("catalan", "rightmost")), TINY_K).map(
                    "{0[0]}:{0[1]}".format
                ),
                st.tuples(TINY_K, SMALL_INT).map("bounded:{0[0]},{0[1]}".format),
            ),
            st.just("--offline"),
            st.just("--terms"),
            TINY_INT,
        ),
        FORMAT,
    ),
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(ARGV)
# sswcn with csv, which the derandomized draw happens to miss
@example(("sswcn", "3", "2", "--format", "csv"))
@example(("sswcn", "3", "2", "--symbolic", "--format", "csv"))
@example(("sswcn", "3", "2", "--symbolic", "--b", "5,fill=7"))
def test_every_command_exits_0_or_2(tmp_path_factory, argv):
    if argv[0] == "oeis-check":  # an empty cache: only the bundled b-files
        argv += ("--cache-dir", str(tmp_path_factory.getbasetemp() / "no-cache"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if argv[0] == "oeis-check" and code == 1:  # a real mismatch
        assert "MISMATCH" in out.getvalue() and not err.getvalue(), argv
        return
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert not out.getvalue() and "error" in err.getvalue(), argv


# The argparse grammar the CLI once used, kept as it was: the oracle of
# `cli.parse_args`.
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscat",
        description="k-dimensional semisymmetric weighted Catalan numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, formats):
        # argparse refuses a format the subcommand cannot print before any
        # work starts.
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="plain")
        return p

    # csv only where the answer is a table or one record of scalars
    no_csv = ("plain", "json")

    def add_weights(p):
        # An absent option reads as None, and a malformed one is a usage
        # error (exit 2).
        for name, example in (("--b", "1,0,2,fill=0"), ("--c", "1,1,fill=1")):
            p.add_argument(
                name, type=_parse_weight_sequence, help=f"{name[2:]} weights, e.g. {example}"
            )

    p = add("enumerate", _cmd_enumerate, "list balanced ballot paths", FORMATS)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=None, help="height bound u")

    p = add("count", _cmd_count, "k-dimensional Catalan number", FORMATS)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)

    p = add(
        "bounded", _cmd_bounded, "u-bounded weighted count via the transfer matrix", FORMATS
    )
    p.add_argument("k", type=int)
    p.add_argument("u", type=int)
    p.add_argument("n", type=int)
    add_weights(p)
    p.add_argument("--mod", type=int, default=None)

    p = add("sswcn", _cmd_sswcn, "unbounded weighted count (lattice DP)", FORMATS)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--symbolic", action="store_true", help="print the polynomial")
    add_weights(p)

    p = add("triangle", _cmd_triangle, "height or Narayana triangle rows", FORMATS)
    p.add_argument("kind", choices=("height", "narayana"))
    p.add_argument("k", type=int)
    p.add_argument("--rows", type=int, required=True, help="largest n")

    p = add("period", _cmd_period, "eventual period of the bounded count mod m", no_csv)
    p.add_argument("k", type=int)
    p.add_argument("u", type=int)
    p.add_argument("--mod", type=int, required=True)
    add_weights(p)

    p = add("verify", _cmd_verify, "run closed-formula verifiers", no_csv)
    p.add_argument(
        "name",
        nargs="?",
        default="all",
        help="a verifier family, or 'all'; an unknown name lists them",
    )

    p = add("oeis-check", _cmd_oeis_check, "compare a generator against an OEIS b-file", no_csv)
    p.add_argument("id", help="A-number, e.g. A015448")
    p.add_argument("generator", help="catalan:k | bounded:k,u | dprime-3-2n | rightmost:k")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--cache-dir", default=None)

    p = add("syt", _cmd_syt, "standard Young tableau operations", no_csv)
    p.add_argument("action", choices=("path-to-tableau", "tableau-to-path", "tally"))
    p.add_argument("value", help="steps '1,1,2,...' or rows '1,2/3,4'")
    p.add_argument("--k", type=int, default=None, help="dimension for path input")

    p = add(
        "scan-pow2", _cmd_scan_pow2, "scan (k,u) for bounded counts equal to 2^(n-1)", no_csv
    )
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--u-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=6)

    return parser


ORACLE = build_parser()


def _parsed(parse, argv):
    """vars() of what *parse* makes of *argv*, or the exit code it raises
    (0 for help, 2 for a usage error); its output is dropped."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


def _option_groups(argv):
    """The tokens after the command of an `ARGV` draw, split into option
    groups (an option and its value, or a flag) and positionals."""
    flags = {"--symbolic", "--offline"}
    groups, positionals = [], []
    rest = list(argv[1:])
    while rest:
        token = rest.pop(0)
        if not token.startswith("--"):
            positionals.append(token)
        elif "=" in token or token in flags:
            groups.append([token])
        else:
            groups.append([token, *rest[:1]])
            del rest[:1]
    return groups, positionals


@st.composite
def _respelled(draw, argv):
    """*argv* with the spellings the `ARGV` grammar lacks: a value after
    '=' or as the next token, options abbreviated, repeated and moved
    among the positionals, '--' before the positionals, a help flag, and
    now and then one word left out."""
    groups, positionals = _option_groups(argv)
    spelled = []
    for group in groups:
        name, eq, value = group[0].partition("=")
        if eq or len(group) == 2:
            value = value if eq else group[1]
            group = [f"{name}={value}"] if draw(st.booleans()) else [name, value]
        if draw(st.booleans()):
            prefix = name[: draw(st.integers(3, len(name)))]
            group = [prefix + group[0][len(name) :], *group[1:]]
        spelled.append(group)
    if spelled and draw(st.booleans()):
        spelled.append(draw(st.sampled_from(spelled)))
    # each option group goes before the positional at its drawn index
    places = draw(st.lists(st.integers(0, len(positionals)), min_size=len(spelled), max_size=len(spelled)))
    tokens = [argv[0]]
    for i, positional in enumerate([*positionals, None]):
        for place, group in zip(places, spelled):
            if place == i:
                tokens += group
        if positional is not None:
            if i == 0 and draw(st.booleans()):
                tokens.append("--")
            tokens.append(positional)
    if draw(st.booleans()):
        flag = draw(st.sampled_from(("-h", "--help", "--he")))
        tokens.insert(draw(st.integers(0, len(tokens))), flag)
    if draw(st.integers(0, 3)) == 0:  # one word short
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return tuple(tokens)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.one_of(ARGV, ARGV.flatmap(_respelled)))
@example(("bounded", "3", "4", "10", "--b", "1,2"))
@example(("bounded", "--mod", "7", "3", "4", "10", "--b=1,2"))
@example(("sswcn", "3", "2", "--sym", "--sym"))
@example(("scan-pow2", "--k-m", "4", "--k-max", "5", "--n", "2"))
@example(("count", "--", "2", "1"))
@example(("count", "2", "1", "--"))
@example(("verify", "--", "--"))
@example(("count", "2", "--", "--format", "json"))
@example(("count", "-5\n", "1"))
@example(("count", "--foo", "-h"))
@example(("count", "x", "-h"))
@example(("--foo", "count", "--he"))
@example(("--h",))
@example(())
@example(("count", "2"))
@example(("triangle", "height", "3"))
@example(("--foo", "count", "2", "1"))
@example(("count", "2", "1", "--=plain"))
@example(("count", "2", "1", "-hx"))
@example(("count", "2", "1", "--=x"))
@example(("bounded", "3", "4", "10", "--mod", "-2"))
@example(("bounded", "3", "4", "10", "--mod", "--", "2"))
@example(("syt", "tally", "-1 2"))
@example(("oeis-check", "A000108", "catalan:2", "--c", "dir", "--offline=1"))
def test_the_parser_reads_what_the_argparse_grammar_reads(argv):
    oracle = _parsed(ORACLE.parse_args, argv)
    parsed = _parsed(cli.parse_args, argv)
    # an argv the grammar reads gets the same handler and values, or help
    if oracle != 2:
        assert parsed == oracle, argv
    # a refusal is the grammar's refusal too; the grammar refuses more only
    # where a bad positional came before a help flag, which the parser reads
    # at the end
    if parsed == 2:
        assert oracle == 2, argv
    elif oracle == 2:
        asks_help = any(t == "-h" or (len(t) > 2 and "--help".startswith(t)) for t in argv)
        assert parsed == 0 and asks_help, argv


def test_help_is_rendered_from_the_table(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["-h"])
    out = capsys.readouterr().out
    assert raised.value.code == 0
    assert all(f"  {name} " in out for name in cli.COMMANDS)
    for name, (_, help, args) in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as raised:
            main([name, "--help"])
        out = capsys.readouterr().out
        assert raised.value.code == 0
        assert out.startswith(f"usage: sscat {name} [-h]") and help in out, name
        assert all(arg.name in out for arg in args), name


def _benchmark_argv():
    """Every argv the benchmark runs: the jobs of `perfbench/jobs.py` for
    seeds 1-3, built without an oracle, which their checks read only when
    they run, and the start-up call."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    jobs = runpy.run_path(os.path.join(root, "perfbench", "jobs.py"))
    argvs = {jobs["SETUP_ARGV"]}
    for make in jobs["WORKLOADS"].values():
        for seed in (1, 2, 3):
            argvs.update(job.argv for job in make(random.Random(seed), None))
    return sorted(argvs)


@pytest.mark.parametrize("argv", _benchmark_argv(), ids=" ".join)
def test_the_plain_reader_reads_every_benchmark_command(argv):
    args = cli._read(list(argv))
    assert args is not None
    assert vars(args) == vars(ORACLE.parse_args(list(argv)))


@pytest.mark.parametrize(
    "respelled, plain",
    [
        (("count", "2", "1", "--format=json"), ("count", "2", "1", "--format", "json")),
        (("sswcn", "3", "2", "--sym"), ("sswcn", "3", "2", "--symbolic")),
        (("count", "--", "2", "1"), ("count", "2", "1")),
        (("count", "2", "1", "-h"), None),
    ],
    ids=["--format=json", "--sym", "--", "-h"],
)
def test_other_spellings_are_read_by_argparse(monkeypatch, capsys, respelled, plain):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    assert cli._read(list(respelled)) is None
    if plain is None:
        with pytest.raises(SystemExit) as raised:
            cli.parse_args(list(respelled))
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sscat count [-h]")
    else:
        assert vars(cli.parse_args(list(respelled))) == vars(cli._read(list(plain)))
    assert built == [1]
