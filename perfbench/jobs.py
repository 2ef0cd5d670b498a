"""Workload job lists and the answer checks that gate every timing.

A job is one `sscat` command line.  Each workload is a fixed list of jobs
whose sizes (k, n, u) never depend on the seed, because the sizes set the
work.  The seed only picks weights, moduli and job order from the pools
below, so every seed asks the program for the same amount of work.

Every job's output is checked in the benchmark process, outside the timed
span.  The expected answers come from `reference/sscat`, a frozen copy of
the package at commit a9ac8ae, never from the program under test: a
defect in a routine that a job and its check share would otherwise agree
with itself.  Where an independent route exists the check uses it:

* triangle row totals against `catalan_number`, and rows against the
  bundled b-files;
* the symbolic `sswcn` polynomial, evaluated here at seeded weights,
  against `bounded_sswcn_dp` at u = `max_path_height`;
* numeric `sswcn` against `bounded_sswcn_dp` at u = `max_path_height`;
* `--mod` results against the exact bounded count mod m;
* period reports against `bounded_sequence_mod` over [t, t + 2*omega];
* `count` and the size of `enumerate` against the hook-length formula,
  and every enumerated path against the ballot rule written here.

No independent route exists for the exact big-integer `bounded` counts,
`scan-pow2` and `verify all`.  Those jobs are pinned to a SHA-256 digest
of their output taken at commit a9ac8ae (see `DIGESTS`).  The b-files
A393594 and A393747 were themselves generated by the package's brute
force, so they pin regressions rather than prove correctness.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional

# Checks return None when the output is right, else a one-line reason.
Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its standard output must pass."""

    argv: tuple[str, ...]
    check: Check

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# The do-nothing call timed as `setup_s`: interpreter start, `import sscat`
# and argparse, with no counting work.
SETUP_ARGV = ("count", "2", "1")
SETUP_OUTPUT = "1\n"

# Pools the seed draws from.  Each pool's members cost the same work.
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)
BOUNDED_4_24_WEIGHTS = (
    ("2,1,3", "1,2"),
    ("1,2,2", "3,1"),
    ("3,1,1,2", "1,2"),
    ("2,2,1", "2,1,1"),
)
SMALL_WEIGHT = range(1, 5)

# SHA-256 of the standard output of the jobs that have no independent
# route, taken at commit a9ac8ae.  The answer of `bounded 3 20 3000
# --b 2,fill=2` has 4,884 digits; at that commit the CLI exits 2 with
# Python's 4,300-digit string-conversion limit, so its digest was taken
# from the library value with the limit lifted.  The job stays in the
# workload and counts as failed until the CLI prints that answer.
DIGESTS = {
    "bounded 3 30 2000": "6cbd236464f1e9b3ecffef2a3876c06be840acab31fd963a691dc61b9caf9613",
    "bounded 3 20 3000 --b 2,fill=2": "e229b84fa8c9b3f6c0a7cf71a70766baff8a17869371126be50041859f80badd",
    "bounded 4 24 1000 --b 2,1,3 --c 1,2": "f59d374e949d49023d992754b9bdd7c624870f4c6312a4e4c3f5940c838b473a",
    "bounded 4 24 1000 --b 1,2,2 --c 3,1": "6b66142113d419b5966466e35a60a75b23d549dbceef9b2e6f5ae3700b7f0add",
    "bounded 4 24 1000 --b 3,1,1,2 --c 1,2": "1d12ef5de203fffb5d1a5fa212a22a93a6451078b9f898e53f7a1ab296b83275",
    "bounded 4 24 1000 --b 2,2,1 --c 2,1,1": "52616f1b14a13e0b53a2c025919dde20da35cff485b2914d86f86b5e445fd6c4",
    "scan-pow2 --k-max 7 --u-max 20 --n-max 8": "ec53c64e9a3d3f15c63b4fb71b92341b455bf370121015b5e5556e9b9330ec9c",
    "verify all": "2458a828ee3161c8dfae713958bbf5049794b39061d2a737a59029bd02643815",
}


class Oracle:
    """Independent answers, computed in the benchmark process with the
    frozen copy of the package and cached for the life of a run."""

    def __init__(self, sscat, fixture_dir: Path):
        self.sscat = sscat
        self.fixture_dir = fixture_dir
        self.exact = cache(self._exact)
        self.bfile = cache(self._bfile)

    def weights(self, b: Optional[str], c: Optional[str]):
        b_prefix, b_fill = _weight_sequence(b)
        c_prefix, c_fill = _weight_sequence(c)
        return self.sscat.WeightAssignment(b_prefix, b_fill, c_prefix, c_fill)

    def _exact(self, k: int, u: int, n: int, b=None, c=None) -> int:
        return self.sscat.bounded_sswcn_dp(k, u, n, self.weights(b, c))

    def _bfile(self, seq_id: str) -> list[int]:
        values = []
        for line in (self.fixture_dir / f"{seq_id}.txt").read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                values.append(int(line.split()[1]))
        return values


def _weight_sequence(text: Optional[str]) -> tuple[tuple[int, ...], int]:
    """'1,0,2,fill=0' -> ((1, 0, 2), 0); fill defaults to 1."""
    prefix, fill = [], 1
    for part in (text or "").split(","):
        if part.startswith("fill="):
            fill = int(part[5:])
        elif part:
            prefix.append(int(part))
    return tuple(prefix), fill


def hook_length_count(k: int, n: int) -> int:
    """Standard Young tableaux of the k x n rectangle, by the hook-length
    formula; equals the number of balanced ballot paths of length k*n."""
    hooks = math.prod((k - i) + (n - j) - 1 for i in range(k) for j in range(n))
    return math.factorial(k * n) // hooks


def prime_factors(n: int) -> set[int]:
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    if n > 1:
        factors.add(n)
    return factors


# ---------------------------------------------------------------------------
# Checks.


def expect_text(expected: str) -> Check:
    return lambda out: None if out == expected else f"expected {expected!r}"


def expect_digest(key: str) -> Check:
    def check(out: str) -> Optional[str]:
        digest = hashlib.sha256(out.encode()).hexdigest()
        return None if digest == DIGESTS[key] else f"digest {digest[:12]} differs from the pin"

    return check


def expect_int(value: Callable[[], int]) -> Check:
    def check(out: str) -> Optional[str]:
        expected = value()
        return None if out.strip() == str(expected) else f"expected {expected}"

    return check


def _parse_rows(out: str) -> dict[int, dict[int, int]]:
    """'n=2  4:1 6:1' lines -> {2: {4: 1, 6: 1}}."""
    rows = {}
    for line in out.splitlines():
        head, *cells = line.split()
        rows[int(head[2:])] = {int(s): int(c) for s, c in (x.split(":") for x in cells)}
    return rows


def _row_slices(values: list[int], widths: list[int]) -> list[list[int]]:
    out, start = [], 0
    for width in widths:
        out.append(values[start : start + width])
        start += width
    return out


def check_height_4(oracle: Oracle, rows: int) -> Check:
    """Rows n = 1..4 against A393594 (u = 4..4n), totals against
    `catalan_number`, and the maximal-height entry against A001246."""

    def check(out: str) -> Optional[str]:
        got = _parse_rows(out)
        if sorted(got) != list(range(rows + 1)):
            return f"rows {sorted(got)} instead of 0..{rows}"
        ref = _row_slices(oracle.bfile("A393594"), [4 * n - 3 for n in range(1, 5)])
        squares = oracle.bfile("A001246")
        for n, row in got.items():
            if sum(row.values()) != oracle.sscat.catalan_number(4, n):
                return f"row n={n} total differs from catalan_number"
            if 1 <= n <= 4 and [row.get(u, 0) for u in range(4, 4 * n + 1)] != ref[n - 1]:
                return f"row n={n} differs from A393594"
            if n and row.get(4 * n) != squares[n]:
                return f"row n={n} rightmost entry differs from A001246"
        return None

    return check


def check_narayana_3(oracle: Oracle, rows: int) -> Check:
    """Rows n = 0..6 against A393747 and totals against `catalan_number`."""

    def check(out: str) -> Optional[str]:
        got = _parse_rows(out)
        if sorted(got) != list(range(rows + 1)):
            return f"rows {sorted(got)} instead of 0..{rows}"
        ref = _row_slices(oracle.bfile("A393747"), [max(n, 1) for n in range(rows + 1)])
        for n, row in got.items():
            if sum(row.values()) != oracle.sscat.catalan_number(3, n):
                return f"row n={n} total differs from catalan_number"
            if [row.get(a, 0) for a in range(max(n, 1))] != ref[n]:
                return f"row n={n} differs from A393747"
        return None

    return check


_FACTOR = re.compile(r"([BC])(\d+)(?:\^(\d+))?$")


def evaluate_polynomial_text(text: str, w) -> int:
    """Evaluate the CLI's printed polynomial ('4*B0*C3^2 + B1 - 2') at w."""
    total = 0
    for sign, term in re.findall(r"(^|[+-]) ?([^ +-]+)", text.strip()):
        value = 1
        for factor in term.split("*"):
            if factor.isdigit():
                value *= int(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"bad factor {factor!r}")
            var, index, power = match.groups()
            base = w.b(int(index)) if var == "B" else w.c(int(index))
            value *= base ** int(power or 1)
        total += -value if sign == "-" else value
    return total


def check_symbolic(oracle: Oracle, k: int, n: int, weights: list[tuple[str, str]]) -> Check:
    """The polynomial at all-ones weights and at seeded weights must equal
    the transfer-matrix DP at u = max_path_height(k, n)."""

    def check(out: str) -> Optional[str]:
        u = oracle.sscat.max_path_height(k, n)
        for b, c in [(None, None)] + weights:
            try:
                value = evaluate_polynomial_text(out, oracle.weights(b, c))
            except ValueError as exc:
                return str(exc)
            if value != oracle.exact(k, u, n, b, c):
                return f"polynomial at b={b} c={c} differs from bounded_sswcn_dp"
        return None

    return check


def check_enumerate(k: int, n: int) -> Check:
    """Every line is a distinct balanced ballot path; there are as many as
    the hook-length formula gives."""

    def check(out: str) -> Optional[str]:
        lines = out.splitlines()
        if len(lines) != hook_length_count(k, n) or len(set(lines)) != len(lines):
            return f"{len(lines)} lines ({len(set(lines))} distinct), expected {hook_length_count(k, n)}"
        for line in lines:
            counts = [0] * (k + 1)
            for d in map(int, line.split()):
                counts[d] += 1
                if not 1 <= d <= k or (d > 1 and counts[d] > counts[d - 1]):
                    return f"not a ballot path: {line}"
            if counts[1:] != [n] * k:
                return f"not balanced: {line}"
        return None

    return check


_REPORT = re.compile(r"preperiod=(\d+) vector_period=(\d+) scalar_period=(\d+) mod=(\d+)$")


def check_period(oracle: Oracle, k: int, u: int, m: int, b=None, c=None) -> Check:
    """The scalar sequence from `bounded_sequence_mod` over [t, t + 2*omega]
    must repeat with period omega and with the reported scalar period, and
    with no proper divisor of the latter."""

    def check(out: str) -> Optional[str]:
        match = _REPORT.match(out.strip())
        if match is None or int(match[4]) != m:
            return "unparsable report"
        t, omega, scalar = int(match[1]), int(match[2]), int(match[3])
        if omega < 1 or omega % scalar:
            return f"scalar period {scalar} does not divide {omega}"
        seq = oracle.sscat.bounded_sequence_mod(k, u, t + 2 * omega + 1, oracle.weights(b, c), m)

        def repeats(d: int) -> bool:
            return all(seq[i] == seq[i + d] for i in range(t, t + 2 * omega + 1 - d))

        if not repeats(omega) or not repeats(scalar):
            return "sequence does not repeat with the reported periods"
        if any(repeats(scalar // p) for p in prime_factors(scalar)):
            return f"scalar period {scalar} is not minimal"
        return None

    return check


# ---------------------------------------------------------------------------
# Workloads.


def _seeded_weights(rng: random.Random) -> tuple[str, str]:
    b = ",".join(str(rng.choice(SMALL_WEIGHT)) for _ in range(3))
    c = ",".join(str(rng.choice(SMALL_WEIGHT)) for _ in range(2))
    return b, c


def tables(rng: random.Random, oracle: Oracle) -> list[Job]:
    """The paper's tables from brute enumeration."""
    b, c = _seeded_weights(rng)
    probes = [_seeded_weights(rng) for _ in range(2)]
    return [
        Job(("triangle", "height", "4", "--rows", "5"), check_height_4(oracle, 5)),
        Job(("triangle", "narayana", "3", "--rows", "6"), check_narayana_3(oracle, 6)),
        Job(("sswcn", "4", "4", "--symbolic"), check_symbolic(oracle, 4, 4, probes)),
        Job(
            ("sswcn", "3", "5", "--b", b, "--c", c),
            expect_int(lambda: oracle.exact(3, oracle.sscat.max_path_height(3, 5), 5, b, c)),
        ),
        Job(("enumerate", "4", "4"), check_enumerate(4, 4)),
        Job(
            ("oeis-check", "A274969", "dprime-3-2n", "--offline", "--terms", "6"),
            expect_text("A274969 vs dprime-3-2n: match over 6 terms\n"),
        ),
        Job(
            ("oeis-check", "A001246", "rightmost:4", "--offline", "--terms", "4"),
            expect_text("A001246 vs rightmost:4: match over 4 terms\n"),
        ),
    ]


def bounded(rng: random.Random, oracle: Oracle) -> list[Job]:
    """Transfer-matrix counting: exact big-integer DP and residues."""
    b, c = rng.choice(BOUNDED_4_24_WEIGHTS)
    p1, p2 = rng.sample(PRIMES, 2)
    jobs = [
        ("bounded", "3", "30", "2000"),
        ("bounded", "4", "24", "1000", "--b", b, "--c", c),
        # Valid input whose 4,884-digit answer the CLI cannot print at
        # a9ac8ae; kept so the defect shows in ok_ratio.
        ("bounded", "3", "20", "3000", "--b", "2,fill=2"),
        ("scan-pow2", "--k-max", "7", "--u-max", "20", "--n-max", "8"),
        ("verify", "all"),
    ]
    out = [Job(argv, expect_digest(" ".join(argv))) for argv in jobs]
    for (k, u, n), p in (((3, 40, 500), p1), ((5, 20, 3000), p2)):
        out.append(
            Job(
                ("bounded", str(k), str(u), str(n), "--mod", str(p)),
                expect_int(lambda k=k, u=u, n=n, p=p: oracle.exact(k, u, n) % p),
            )
        )
    out.append(
        Job(
            ("oeis-check", "A015448", "bounded:3,4", "--terms", "20", "--offline"),
            expect_text("A015448 vs bounded:3,4: match over 20 terms\n"),
        )
    )
    out.append(Job(("count", "3", "4"), expect_text(f"{hook_length_count(3, 4)}\n")))
    return out


def period(rng: random.Random, oracle: Oracle) -> list[Job]:
    """Cycle detection mod m.  The moduli and weights are fixed, not
    seeded: they set the orbit length, which is the work.

    `period 3 8 --mod 101` is left out of the timed set: at a9ac8ae it ran
    past 2.5 min and 2.8 GB RSS without finishing, beyond the per-job
    budget.  `--mod 47` (orbit 830,576, about 190 MB) is kept because it
    shows the same memory growth at a size a run can afford."""
    specs = [
        (3, 8, 47, None),
        (3, 8, 53, None),
        (3, 8, 61, None),
        (3, 12, 11, None),
        (4, 14, 5, None),
        (3, 8, 17, "2,3,fill=2"),
    ]
    jobs = []
    for k, u, m, b in specs:
        argv = ("period", str(k), str(u), "--mod", str(m)) + (("--b", b) if b else ())
        jobs.append(Job(argv, check_period(oracle, k, u, m, b)))
    return jobs


WORKLOADS = {"tables": tables, "bounded": bounded, "period": period}
