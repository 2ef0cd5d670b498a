"""Command-line interface.

Exit status: 0 on success/verified, 1 on a verification or comparison
mismatch, 2 on usage errors.  JSON output encodes big integers as decimal
strings so consumers are not limited to 53-bit floats.  Answers are printed
in full however many digits they have; Python's digit limit stays in force
for parsing arguments.  Each subcommand imports the modules it runs when it
runs, so a command loads only what it needs.
"""

from __future__ import annotations

import argparse
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
            raise argparse.ArgumentTypeError(
                f"'fill=<int>' must be the final element, got {text!r}"
            )
        try:
            value = int(part[5:] if is_fill else part)
        except ValueError:
            raise argparse.ArgumentTypeError(
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
    """Print each path's steps as the DFS yields them; the JSON form is
    written in pieces whose bytes match `json.dumps` of the whole list."""
    from .paths import enumerate_paths

    paths = enumerate_paths(args.k, args.n, height_bound=args.bound)
    if args.format == "json":
        import json

        sep = ""
        print("[", end="")
        for steps in paths:
            print(sep + json.dumps(steps), end="")
            sep = ", "
        print("]")
        return 0
    if args.format == "csv":
        print("steps")
    for steps in paths:
        print(" ".join(map(str, steps)))
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
    # one that is printed.
    poly = sswcn_lattice(args.k, args.n)
    if args.format != "json":
        print(poly.text())
        return 0
    # The bytes of json.dumps(..., indent=2) of the whole document, written
    # one term at a time so that the term list is never held.  A balanced
    # path always exists, so the list is never empty.
    import json

    print(f'{{\n  "k": {args.k},\n  "n": {args.n},\n  "polynomial": [', end="")
    encode = json.JSONEncoder(indent=2).encode
    sep = "\n    "
    for term in poly.to_json():
        print(sep + encode(term).replace("\n", "\n    "), end="")
        sep = ",\n    "
    print("\n  ]\n}")
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
    from .counting import max_path_height
    from .triangles import height_triangle_row

    return [
        height_triangle_row(k, n).entries[max_path_height(k, n)]
        for n in range(start, stop)
    ]


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "syt" and args.action == "path-to-tableau" and args.k is None:
        parser.error("syt path-to-tableau requires --k")
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so a reader that left early is met here
        return code
    except BrokenPipeError:
        # A closed stdout is a normal end.  Point fd 1 at devnull so the
        # interpreter's flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
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


if __name__ == "__main__":
    sys.exit(main())
