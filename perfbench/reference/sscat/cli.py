"""Command-line interface.

Exit status: 0 on success/verified, 1 on a verification or comparison
mismatch, 2 on usage errors.  JSON output encodes big integers as decimal
strings so consumers are not limited to 53-bit floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import triangles
from .counting import bounded_sswcn_dp, catalan_number, sswcn_brute
from .errors import FormulaViolationError, SscatError
from .oeis import SequenceRecord, compare_sequences, fetch_bfile
from .paths import BallotPath, enumerate_paths
from .periodicity import detect_eventual_period
from .syt import Tableau, path_to_tableau, tableau_to_path, tally
from .weights import WeightAssignment

FORMATS = ("plain", "json", "csv")


def _parse_weight_sequence(text: Optional[str]) -> tuple[tuple[int, ...], int]:
    """Parse '1,0,2,fill=0' into (prefix, fill); fill defaults to 1."""
    if not text:
        return (), 1
    prefix = []
    fill = 1
    for i, part in enumerate(text.split(",")):
        part = part.strip()
        if part.startswith("fill="):
            if i != text.count(",") or not part[5:].lstrip("+-").isdigit():
                raise argparse.ArgumentTypeError(
                    f"'fill=<int>' must be the final element, got {text!r}"
                )
            fill = int(part[5:])
        else:
            try:
                prefix.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"weight sequence elements must be integers, got {part!r}"
                ) from None
    return tuple(prefix), fill


def _weights(args) -> WeightAssignment:
    b_prefix, b_fill = _parse_weight_sequence(getattr(args, "b", None))
    c_prefix, c_fill = _parse_weight_sequence(getattr(args, "c", None))
    return WeightAssignment(b_prefix, b_fill, c_prefix, c_fill)


def _parse_tableau(text: str) -> Tableau:
    """Parse '1,2,4/3,5/6' into a tableau (rows separated by '/')."""
    rows = tuple(
        tuple(int(v) for v in row.split(",") if v.strip())
        for row in text.split("/")
    )
    return Tableau(rows)


def _emit(args, plain: str, payload, csv: Optional[str] = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        if csv is None:
            raise SscatError("csv output is not defined for this subcommand")
        print(csv, end="")
    else:
        print(plain)


# --------------------------------------------------------------------------
# Subcommand handlers; each returns the process exit code.


def _cmd_enumerate(args) -> int:
    paths = list(enumerate_paths(args.k, args.n, height_bound=args.bound))
    if args.format == "json":
        print(json.dumps([list(p.steps) for p in paths]))
    elif args.format == "csv":
        print("steps")
        for p in paths:
            print(" ".join(map(str, p.steps)))
    else:
        for p in paths:
            print(" ".join(map(str, p.steps)))
    return 0


def _cmd_count(args) -> int:
    value = catalan_number(args.k, args.n)
    _emit(
        args,
        str(value),
        {"k": args.k, "n": args.n, "count": str(value)},
        f"k,n,count\n{args.k},{args.n},{value}\n",
    )
    return 0


def _cmd_bounded(args) -> int:
    value = bounded_sswcn_dp(args.k, args.u, args.n, _weights(args), args.mod)
    _emit(
        args,
        str(value),
        {"k": args.k, "u": args.u, "n": args.n, "mod": args.mod, "value": str(value)},
        f"k,u,n,value\n{args.k},{args.u},{args.n},{value}\n",
    )
    return 0


def _cmd_sswcn(args) -> int:
    poly = sswcn_brute(args.k, args.n)
    if args.symbolic:
        _emit(args, poly.text(), {"k": args.k, "n": args.n, "polynomial": poly.to_json()})
    else:
        value = poly.evaluate(_weights(args))
        _emit(
            args,
            str(value),
            {"k": args.k, "n": args.n, "value": str(value)},
            f"k,n,value\n{args.k},{args.n},{value}\n",
        )
    return 0


def _cmd_triangle(args) -> int:
    build = (
        triangles.height_triangle_row
        if args.kind == "height"
        else triangles.narayana_row
    )
    rows = [build(args.k, n) for n in range(args.rows + 1)]
    if args.format == "json":
        print(json.dumps([row.to_json() for row in rows], indent=2))
    elif args.format == "csv":
        print(triangles.rows_to_csv(rows), end="")
    else:
        for row in rows:
            entries = " ".join(f"{s}:{c}" for s, c in sorted(row.entries.items()))
            print(f"n={row.n}  {entries}")
    return 0


def _cmd_period(args) -> int:
    report = detect_eventual_period(args.k, args.u, _weights(args), args.mod)
    plain = (
        f"preperiod={report.preperiod} vector_period={report.vector_period} "
        f"scalar_period={report.scalar_period} mod={report.modulus}"
    )
    _emit(args, plain, report.to_json())
    return 0


def _cmd_verify(args) -> int:
    try:
        records = triangles.run_verifiers(args.name)
    except FormulaViolationError as exc:
        print(f"FAIL: {exc} (expected {exc.expected!r}, got {exc.actual!r})", file=sys.stderr)
        return 1
    if args.format == "json":
        print(triangles.records_to_json(records))
    else:
        for record in records:
            for check in record.checks:
                print(f"ok {record.name}: {check}")
    return 0


def _generate(spec: str, count: int) -> SequenceRecord:
    """Generator specs: 'catalan:k', 'bounded:k,u', 'dprime-3-2n',
    'rightmost:k'; produces terms for n = start..start+count-1."""
    name, _, argtext = spec.partition(":")
    params = [int(v) for v in argtext.split(",") if v.strip()]
    if name == "catalan":
        (k,) = params
        return SequenceRecord(spec, 0, tuple(catalan_number(k, n) for n in range(count)))
    if name == "bounded":
        k, u = params
        return SequenceRecord(
            spec, 0, tuple(triangles.bounded_catalan(k, u, n) for n in range(count))
        )
    if name == "dprime-3-2n":
        return SequenceRecord(
            spec,
            1,
            tuple(
                triangles.height_triangle_row(3, n).entries[2 * n]
                for n in range(1, count + 1)
            ),
        )
    if name == "rightmost":
        (k,) = params
        return SequenceRecord(
            spec,
            1,
            tuple(
                triangles.height_triangle_row(k, n).entries[
                    triangles.max_path_height(k, n)
                ]
                for n in range(1, count + 1)
            ),
        )
    raise SscatError(
        f"unknown generator {name!r}; use catalan:k, bounded:k,u, dprime-3-2n, or rightmost:k"
    )


def _cmd_oeis_check(args) -> int:
    reference = fetch_bfile(args.id, cache_dir=args.cache_dir, offline=args.offline)
    computed = _generate(args.generator, args.terms)
    report = compare_sequences(computed, reference)
    verdict = "match" if report.match else f"MISMATCH at index {report.first_mismatch}"
    _emit(
        args,
        f"{args.id} vs {args.generator}: {verdict} over {report.overlap_length} terms",
        {"id": args.id, "generator": args.generator, **report.to_json()},
    )
    return 0 if report.match else 1


def _cmd_syt(args) -> int:
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
    hits = triangles.scan_power_of_two(args.k_max, args.u_max, args.n_max)
    plain = "\n".join(f"k={k} u={u}" for k, u in hits) or "(none)"
    _emit(args, plain, [{"k": k, "u": u} for k, u in hits])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscat",
        description="k-dimensional semisymmetric weighted Catalan numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=FORMATS, default="plain")
        return p

    p = add("enumerate", _cmd_enumerate, "list balanced ballot paths")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=None, help="height bound u")

    p = add("count", _cmd_count, "k-dimensional Catalan number")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)

    p = add("bounded", _cmd_bounded, "u-bounded weighted count via the transfer matrix")
    p.add_argument("k", type=int)
    p.add_argument("u", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--b", help="b weights, e.g. 1,0,2,fill=0")
    p.add_argument("--c", help="c weights, e.g. 1,1,fill=1")
    p.add_argument("--mod", type=int, default=None)

    p = add("sswcn", _cmd_sswcn, "unbounded weighted count (brute force)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--symbolic", action="store_true", help="print the polynomial")
    p.add_argument("--b")
    p.add_argument("--c")

    p = add("triangle", _cmd_triangle, "height or Narayana triangle rows")
    p.add_argument("kind", choices=("height", "narayana"))
    p.add_argument("k", type=int)
    p.add_argument("--rows", type=int, required=True, help="largest n")

    p = add("period", _cmd_period, "eventual period of the bounded count mod m")
    p.add_argument("k", type=int)
    p.add_argument("u", type=int)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--b")
    p.add_argument("--c")

    p = add("verify", _cmd_verify, "run closed-formula verifiers")
    p.add_argument(
        "name",
        nargs="?",
        default="all",
        help=f"one of {sorted(triangles.ALL_VERIFIERS)} or 'all'",
    )

    p = add("oeis-check", _cmd_oeis_check, "compare a generator against an OEIS b-file")
    p.add_argument("id", help="A-number, e.g. A015448")
    p.add_argument("generator", help="catalan:k | bounded:k,u | dprime-3-2n | rightmost:k")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--cache-dir", default=None)

    p = add("syt", _cmd_syt, "standard Young tableau operations")
    p.add_argument("action", choices=("path-to-tableau", "tableau-to-path", "tally"))
    p.add_argument("value", help="steps '1,1,2,...' or rows '1,2/3,4'")
    p.add_argument("--k", type=int, default=None, help="dimension for path input")

    p = add("scan-pow2", _cmd_scan_pow2, "scan (k,u) for bounded counts equal to 2^(n-1)")
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--u-max", type=int, default=12)
    p.add_argument("--n-max", type=int, default=6)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "syt" and args.action == "path-to-tableau" and args.k is None:
        parser.error("syt path-to-tableau requires --k")
    try:
        return args.handler(args)
    except FormulaViolationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except SscatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
