"""Command-line interface.

Exit status: 0 on success/verified, 1 on a verification or comparison
mismatch, 2 on usage errors.  JSON output encodes big integers as decimal
strings so consumers are not limited to 53-bit floats.  Answers are printed
in full however many digits they have; Python's digit limit stays in force
for parsing arguments.  Each subcommand imports the modules it runs when it
runs, so a command loads only what it needs.

`COMMANDS` declares the subcommands: each one's handler, help line and
arguments, with the `--format`s it prints.  It is the one grammar, read
two ways.  `_read` reads only the plain spelling: the command, its
positionals, then each option by its full name followed by its value.
It declines anything else rather than guess.  `build_parser`, an
argparse parser built from the same table, then reads every other
spelling (`--name=value`, a prefix of an option, options among the
positionals, `--`, `-h`) and words every help text and usage error
(exit 2).  So a plain command line never imports argparse, with the
gettext and locale it loads: on a 2-core VM with Python 3.11 that costs
about 10 ms of CPU per command.

`main(argv)` returns the exit code and never ends the process itself.
`run`, the entry of `sscat`, `python -m sscat` and `python -m sscat.cli`,
ends the process once the output is flushed and the exit callbacks have
run, skipping the interpreter's teardown: about 7 ms of CPU per command
on the same VM.  A stdout that cannot be written is refused (exit 2); a
reader that left early is a normal end (exit 0).
"""

from __future__ import annotations

import atexit
import errno
import os
import sys

from .errors import FormulaViolationError, SscatError

FORMATS = ("plain", "json", "csv")

# Below the smallest digit limit Python accepts (640), so every chunk
# converts under any setting of the limit.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal_text(value: int) -> str:
    """Decimal digits of *value*, converted in chunks that each stay under
    Python's int-to-string digit limit."""
    if value < 0:
        return "-" + _decimal_text(-value)
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(value))
    return "".join(reversed(chunks))


def _parse_weight_sequence(text: str | None) -> tuple[tuple[int, ...], int]:
    """Parse '1,0,2,fill=0' into (prefix, fill); fill defaults to 1."""
    if not text:
        return (), 1
    prefix = []
    fill = 1
    parts = text.split(",")
    for i, part in enumerate(parts):
        part = part.strip()
        is_fill = part.startswith("fill=")
        if is_fill and i != len(parts) - 1:
            raise ValueError(
                f"'fill=<int>' must be the final element, got {text!r}"
            )
        try:
            value = int(part[5:] if is_fill else part)
        except ValueError:
            raise ValueError(
                f"weight sequence elements must be integers, got {part!r}"
            ) from None
        if is_fill:
            fill = value
        else:
            prefix.append(value)
    return tuple(prefix), fill


def _weights(args):
    """The `WeightAssignment` parsed from --b and --c, each a (prefix, fill)
    pair; an absent option leaves its sequence all ones."""
    from .weights import WeightAssignment

    return WeightAssignment(*(args.b or ((), 1)), *(args.c or ((), 1)))


def _parse_tableau(text: str):
    """Parse '1,2,4/3,5/6' into a `Tableau` (rows separated by '/')."""
    from .syt import Tableau

    rows = tuple(
        tuple(int(v) for v in row.split(",") if v.strip())
        for row in text.split("/")
    )
    return Tableau(rows)


def _emit(args, plain: str, payload) -> None:
    """Print *plain*, *payload* as JSON, or *payload* as a one-record CSV:
    its keys on one line and its values on the next, None as an empty
    field."""
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print(",".join(payload))
        print(",".join("" if v is None else str(v) for v in payload.values()))
    else:
        print(plain)


# --------------------------------------------------------------------------
# Subcommand handlers; each returns the process exit code.


def _cmd_enumerate(args) -> int:
    """Print each path's steps as the DFS yields them, one write per path
    from a template with one %d per step, after charging the paths and
    the points their walk holds; the JSON form is written in pieces whose
    bytes match `json.dumps` of the whole list."""
    from .counting import _check_enumeration
    from .paths import enumerate_paths

    _check_enumeration(args.k, args.n, args.bound)
    paths = enumerate_paths(args.k, args.n, height_bound=args.bound)
    write = sys.stdout.write
    steps = args.k * args.n
    if args.format == "json":
        template = "[" + ", ".join(["%d"] * steps) + "]"
        write("[")
        sep = ""
        for path in paths:
            write(sep + template % path)
            sep = ", "
        write("]\n")
        return 0
    if args.format == "csv":
        write("steps\n")
    template = " ".join(["%d"] * steps) + "\n"
    for path in paths:
        write(template % path)
    return 0


def _cmd_count(args) -> int:
    from .counting import catalan_number

    value = _decimal_text(catalan_number(args.k, args.n))
    _emit(args, value, {"k": args.k, "n": args.n, "count": value})
    return 0


def _cmd_bounded(args) -> int:
    from .counting import bounded_sswcn_dp

    value = _decimal_text(
        bounded_sswcn_dp(args.k, args.u, args.n, _weights(args), args.mod)
    )
    _emit(
        args,
        value,
        {"k": args.k, "u": args.u, "n": args.n, "mod": args.mod, "value": value},
    )
    return 0


def _cmd_sswcn(args) -> int:
    from .counting import sswcn_lattice, sswcn_lattice_value

    if not args.symbolic:
        value = _decimal_text(sswcn_lattice_value(args.k, args.n, _weights(args)))
        _emit(args, value, {"k": args.k, "n": args.n, "value": value})
        return 0
    if args.format == "csv":
        raise SscatError("csv output is not defined for sswcn --symbolic")
    if args.b or args.c:
        raise SscatError(
            "--b and --c do not apply to sswcn --symbolic, which keeps B and C as variables"
        )
    # Either form of the polynomial can take hundreds of MB: build only the
    # one that is printed, and write it a term at a time.
    poly = sswcn_lattice(args.k, args.n)
    write = sys.stdout.write
    if args.format == "json":
        # The bytes of json.dumps(..., indent=2) of the whole document.
        write(f'{{\n  "k": {args.k},\n  "n": {args.n},\n  "polynomial": ')
        sys.stdout.writelines(poly.json_pieces())
        write("\n}\n")
    else:
        sys.stdout.writelines(poly.text_pieces())
        write("\n")
    return 0


def _cmd_triangle(args) -> int:
    from .triangles import triangle_rows

    if args.rows < 0:
        raise ValueError(f"--rows must be >= 0, got {args.rows}")
    rows = triangle_rows(args.kind, args.k, range(args.rows + 1))
    if args.format == "json":
        import json

        print(json.dumps([row.to_json() for row in rows], indent=2))
    elif args.format == "csv":
        print("k,n,stat,count")
        for row in rows:
            for s, c in sorted(row.entries.items()):
                print(f"{row.k},{row.n},{s},{c}")
    else:
        for row in rows:
            entries = " ".join(f"{s}:{c}" for s, c in sorted(row.entries.items()))
            print(f"n={row.n}  {entries}")
    return 0


def _cmd_period(args) -> int:
    from .periodicity import detect_eventual_period

    report = detect_eventual_period(args.k, args.u, _weights(args), args.mod)
    plain = (
        f"preperiod={report.preperiod} vector_period={report.vector_period} "
        f"scalar_period={report.scalar_period} mod={report.modulus}"
    )
    _emit(args, plain, report._asdict())
    return 0


def _cmd_verify(args) -> int:
    from .triangles import run_verifiers

    records = run_verifiers(args.name)
    plain = "\n".join(f"ok {r.name}: {check}" for r in records for check in r.checks)
    _emit(args, plain, [r.to_json() for r in records])
    return 0


def _catalan_terms(start: int, stop: int, k: int) -> list[int]:
    from .counting import catalan_number

    return [catalan_number(k, n) for n in range(start, stop)]


def _bounded_terms(start: int, stop: int, k: int, u: int) -> list[int]:
    # One orbit for the whole range: the matrix is evaluated once.
    from .counting import bounded_sequence

    return bounded_sequence(k, u, stop)[start:]


def _rightmost_terms(start: int, stop: int, k: int) -> list[int]:
    # The rows are budgeted as one triangle, as `sscat triangle` does.
    from .counting import max_path_height
    from .triangles import HEIGHT_TRIANGLE, triangle_rows

    rows = triangle_rows(HEIGHT_TRIANGLE, k, range(start, stop))
    return [row.entries[max_path_height(k, row.n)] for row in rows]


# The generators of `oeis-check`, by name: (number of parameters, first
# index n, terms(start, stop, *params) for n = start..stop-1).
_GENERATORS = {
    "catalan": (1, 0, _catalan_terms),
    "bounded": (2, 0, _bounded_terms),
    # D'_3(2n) is the rightmost entry of row n at k = 3: max_path_height(3, n) = 2n.
    "dprime-3-2n": (0, 1, lambda start, stop: _rightmost_terms(start, stop, 3)),
    "rightmost": (1, 1, _rightmost_terms),
}
_GENERATOR_USAGE = "use catalan:k, bounded:k,u, dprime-3-2n, or rightmost:k"


def _generate(spec: str, count: int, reference):
    """The terms of the generator *spec* for n = first..first+count-1,
    computed only where the `SequenceRecord` *reference* holds a value to
    compare them with."""
    from .oeis import SequenceRecord

    name, _, argtext = spec.partition(":")
    if name not in _GENERATORS:
        raise SscatError(f"unknown generator {name!r}; {_GENERATOR_USAGE}")
    arity, first, terms = _GENERATORS[name]
    try:
        params = [int(v) for v in argtext.split(",") if v.strip()]
    except ValueError:
        params = None
    if params is None or len(params) != arity:
        raise SscatError(
            f"generator {spec!r} takes {arity} integer parameter(s); {_GENERATOR_USAGE}"
        )
    start = max(first, reference.offset)
    stop = min(first + count, reference.offset + len(reference.values))
    values = terms(start, stop, *params) if start < stop else ()
    return SequenceRecord(spec, start, tuple(values))


def _cmd_oeis_check(args) -> int:
    from .oeis import compare_sequences, fetch_bfile

    reference = fetch_bfile(args.id, cache_dir=args.cache_dir, offline=args.offline)
    computed = _generate(args.generator, args.terms, reference)
    report = compare_sequences(computed, reference)
    verdict = "match" if report.match else f"MISMATCH at index {report.first_mismatch}"
    _emit(
        args,
        f"{args.id} vs {args.generator}: {verdict} over {report.overlap_length} terms",
        {"id": args.id, "generator": args.generator, **report._asdict()},
    )
    return 0 if report.match else 1


def _cmd_syt(args) -> int:
    from .paths import BallotPath
    from .syt import path_to_tableau, tableau_to_path, tally

    if args.action == "path-to-tableau":
        if args.k is None:
            raise SscatError("syt path-to-tableau requires --k")
        steps = tuple(int(v) for v in args.value.split(",") if v.strip())
        t = path_to_tableau(BallotPath(args.k, steps))
        _emit(args, t.render(), t.to_json())
    elif args.action == "tableau-to-path":
        path = tableau_to_path(_parse_tableau(args.value))
        _emit(
            args,
            ",".join(map(str, path.steps)),
            {"k": path.k, "steps": list(path.steps)},
        )
    else:  # tally
        value = tally(_parse_tableau(args.value))
        _emit(args, str(value), {"tally": value})
    return 0


def _cmd_scan_pow2(args) -> int:
    from .triangles import scan_power_of_two

    hits = scan_power_of_two(args.k_max, args.u_max, args.n_max)
    plain = "\n".join(f"k={k} u={u}" for k, u in hits) or "(none)"
    _emit(args, plain, [{"k": k, "u": u} for k, u in hits])
    return 0


# --------------------------------------------------------------------------
# The command table and its parser.


class _Arg:
    """One argument of a subcommand: an option when *name* starts with '-',
    else a positional.  *convert* makes its value from its text: a
    callable, a tuple of the texts accepted, or None for a flag, which
    takes no text and is True when given.  A positional without a default
    must be given, and so must an option marked *required*."""

    __slots__ = ("name", "option", "dest", "convert", "default", "required", "help")

    def __init__(self, name, convert=int, default=None, help="", required=False):
        self.name = name
        self.option = name.startswith("-")
        self.dest = name.lstrip("-").replace("-", "_")
        self.convert = convert
        self.default = default
        self.required = required or not (self.option or default is not None)
        self.help = help

    def value(self, text: str):
        """The value of *text*; a `ValueError` when it is not one."""
        if not isinstance(self.convert, tuple):
            return self.convert(text)
        if text not in self.convert:
            raise ValueError(text)
        return text


_WEIGHT_ARGS = (
    _Arg("--b", _parse_weight_sequence, help="b weights, e.g. 1,0,2,fill=0"),
    _Arg("--c", _parse_weight_sequence, help="c weights, e.g. 1,1,fill=1"),
)


def _command(handler, help, formats, *args):
    """A row of `COMMANDS`: the handler, its help line, and its arguments,
    with `--format` accepting only the *formats* it prints, so that a
    format the subcommand cannot print is refused before any work starts."""
    return handler, help, (_Arg("--format", formats, "plain", "how to print the answer"), *args)


# csv only where the answer is a table or one record of scalars
_NO_CSV = ("plain", "json")

COMMANDS = {
    "enumerate": _command(
        _cmd_enumerate, "list balanced ballot paths", FORMATS,
        _Arg("k"), _Arg("n"), _Arg("--bound", help="height bound u"),
    ),
    "count": _command(_cmd_count, "k-dimensional Catalan number", FORMATS, _Arg("k"), _Arg("n")),
    "bounded": _command(
        _cmd_bounded, "u-bounded weighted count via the transfer matrix", FORMATS,
        _Arg("k"), _Arg("u"), _Arg("n"), *_WEIGHT_ARGS, _Arg("--mod"),
    ),
    "sswcn": _command(
        _cmd_sswcn, "unbounded weighted count (lattice DP)", FORMATS,
        _Arg("k"), _Arg("n"), _Arg("--symbolic", None, False, "print the polynomial"),
        *_WEIGHT_ARGS,
    ),
    "triangle": _command(
        _cmd_triangle, "height or Narayana triangle rows", FORMATS,
        _Arg("kind", ("height", "narayana")), _Arg("k"),
        _Arg("--rows", help="largest n", required=True),
    ),
    "period": _command(
        _cmd_period, "eventual period of the bounded count mod m", _NO_CSV,
        _Arg("k"), _Arg("u"), _Arg("--mod", required=True), *_WEIGHT_ARGS,
    ),
    "verify": _command(
        _cmd_verify, "run closed-formula verifiers", _NO_CSV,
        _Arg("name", str, "all", "a verifier family, or 'all'; an unknown name lists them"),
    ),
    "oeis-check": _command(
        _cmd_oeis_check, "compare a generator against an OEIS b-file", _NO_CSV,
        _Arg("id", str, help="A-number, e.g. A015448"),
        _Arg("generator", str, help="catalan:k | bounded:k,u | dprime-3-2n | rightmost:k"),
        _Arg("--terms", default=10), _Arg("--offline", None, False), _Arg("--cache-dir", str),
    ),
    "syt": _command(
        _cmd_syt, "standard Young tableau operations", _NO_CSV,
        _Arg("action", ("path-to-tableau", "tableau-to-path", "tally")),
        _Arg("value", str, help="steps '1,1,2,...' or rows '1,2/3,4'"),
        _Arg("--k", help="dimension for path input"),
    ),
    "scan-pow2": _command(
        _cmd_scan_pow2, "scan (k,u) for bounded counts equal to 2^(n-1)", _NO_CSV,
        _Arg("--k-max", default=6), _Arg("--u-max", default=12), _Arg("--n-max", default=6),
    ),
}


class Arguments:
    """A parsed command line: `command`, `handler`, and one attribute per
    argument of the command."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _read(argv: list[str]) -> Arguments | None:
    """The `Arguments` of *argv* in its plain spelling: the command, its
    positionals, then options by their full names, each but a flag
    followed by its value.  None for any other spelling (a prefix, '=',
    '--', '-h', a value that starts with '-') and for a value that does
    not convert: `build_parser` reads those, or words their error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, args = COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    values.update((arg.dest, arg.default) for arg in args)
    options = {arg.name: arg for arg in args if arg.option}
    slots = iter([arg for arg in args if not arg.option])
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            arg = options.get(token)
            if arg is None:
                arg = next(slots, None)
                if arg is None:
                    return None
            else:
                slots = iter(())  # no positional after an option
                if arg.convert is None:
                    values[arg.dest] = True
                    continue
                token = next(tokens, "-")
            if token.startswith("-"):
                return None
            values[arg.dest] = arg.value(token)
    except ValueError:
        return None
    if any(arg.required and values[arg.dest] is None for arg in args):
        return None
    return Arguments(values)


def build_parser():
    """The argparse parser of `COMMANDS`: it reads every spelling of the
    table, and words every usage error and help text."""
    import argparse

    def typed(convert):
        # the converter's own message, not "invalid <name> value"
        def read(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return read

    parser = argparse.ArgumentParser(
        prog="sscat", description="k-dimensional semisymmetric weighted Catalan numbers"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, args) in COMMANDS.items():
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(handler=handler)
        for arg in args:
            spec = {"default": arg.default, "help": arg.help}
            if arg.convert is None:
                spec["action"] = "store_true"
            elif isinstance(arg.convert, tuple):
                spec.update(choices=arg.convert, help=arg.help or "one of %(choices)s")
            else:
                spec["type"] = arg.convert if arg.convert in (int, str) else typed(arg.convert)
            if arg.option:
                spec["required"] = arg.required
            else:
                spec.update(metavar=arg.name, nargs=None if arg.required else "?")
            p.add_argument(arg.name, **spec)
    return parser


def parse_args(argv: list[str]) -> Arguments:
    """The `Arguments` of the command line *argv* (without the program
    name), read against `COMMANDS`: by `_read`, or by argparse, which
    prints the usage and the error to stderr and exits 2 on a usage
    error, and prints help and exits 0 on -h or --help."""
    return _read(argv) or build_parser().parse_args(argv)


def _drop_output() -> None:
    """Point fd 1 at devnull: what stdout still holds then goes nowhere, so
    no later flush of it can fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """Run the command line *argv* (`sys.argv[1:]` by default) and return
    its exit code; it never ends the process itself, except where argparse
    exits on a usage error or -h."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if sys.stdout is None:  # started with fd 1 closed
        print(f"error: cannot write the output: {os.strerror(errno.EBADF)}", file=sys.stderr)
        return 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a reader that left early, or a full disk, is met here
        return code
    except BrokenPipeError:
        # A closed stdout is a normal end.
        _drop_output()
        return 0
    except OSError as exc:
        if exc.filename is not None:
            raise  # a file the command opened, not its output
        print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
        _drop_output()
        return 2
    except FormulaViolationError as exc:
        print(
            f"FAIL: {exc} (expected {exc.expected!r}, got {exc.actual!r}, "
            f"witness {exc.witness!r})",
            file=sys.stderr,
        )
        return 1
    except SscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The script entry of `sscat`, `python -m sscat` and `python -m
    sscat.cli`: `main()`, then the exit callbacks and a flush of stdout
    and stderr, in the interpreter's own order, then the end of the
    process with `os._exit`, which skips the interpreter's teardown (its
    GC passes, and freeing every module and object).  The package writes
    files only inside `with` blocks, so nothing is left unwritten.  A
    flush that fails, a usage error and an uncaught exception end the
    interpreter's usual way, which reports them."""
    code = main()
    try:
        atexit._run_exitfuncs()  # those of site, coverage and profilers
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # the interpreter's flush at exit reports it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
