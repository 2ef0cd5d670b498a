"""Height and Narayana triangles, plus verifiers for the closed formulas.

The height triangle counts balanced ballot paths by their maximum
semisymmetric height; the Narayana triangle counts them by the number of
semisymmetric peaks (an up-step immediately followed by a down-step).
Rows 0..N are read off the diagonal of one lattice walk over the ballot
points of the box [0, N]^k, for the statistic they print, charged before
any walk.  Every row is checked against the Catalan number; a height row
is also checked against the successive differences of the height-bounded
counts, which a second walk of the same box carries for every bound u at
once.  Path enumeration and the
differences of bounded transfer-matrix counts are the test oracles.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import backend
from .counting import (
    _value_step,
    bounded_sequence,
    catalan_number,
    max_path_height,
    min_path_height,
    sswcn_lattice,
)
from .errors import FormulaViolationError, charge
from .paths import charge_box, lattice_diagonal, walk_cost
from .weights import ALL_ONES, WeightAssignment, WeightMonomial, WeightPolynomial

HEIGHT_TRIANGLE = "height"
NARAYANA_TRIANGLE = "narayana"


class TriangleRow(NamedTuple):
    """One row of a statistic triangle: nonzero counts keyed by the
    statistic value (height u or peak count alpha)."""

    kind: str
    k: int
    n: int
    entries: dict[int, int]

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "n": self.n,
            "entries": {str(s): str(c) for s, c in sorted(self.entries.items())},
        }


def _check_work(kind: str, k: int, ns: range) -> None:
    """Charge the walks of the *kind* rows in *ns*, one box [0, N]^k for
    them all, N the last row: its points carry 2(H + 1) tags over the
    triangle's walks, H = max_path_height(k, N), H + 1 running maxima and
    H + 1 survival counts, or at most 2(H + 1) (last step up, peaks) pairs,
    each a count of at most kN bits(k) + 1 bits."""
    n = ns[-1]
    rows = f"n={ns.start}" if len(ns) == 1 else f"n={ns.start}..{n}"
    tags = 2 * (max_path_height(k, n) + 1)
    charge_box(f"the {kind} triangle (k={k}, {rows})", k, n, tags, k * n * k.bit_length() + 1)


@lru_cache(maxsize=None)
def _histograms(kind: str, k: int, n: int) -> list[dict[int, int]]:
    """The *kind* histograms of rows 0..n, from one walk of [0, n]^k."""
    walk = backend.height_histograms if kind == HEIGHT_TRIANGLE else backend.peak_histograms
    return walk(k, n)


def _height_differences(k: int, n: int) -> list[dict[int, int]]:
    """For m = 0..n, the height row m as the successive differences of the
    height-bounded counts, from one walk of the box [0, n]^k: each bound u
    starts with a count of 1, dropped once a step ends above u."""

    def survive(vector, kind, g, g2):
        return ((u, c) for u, c in vector.items() if u >= g2)

    seed = dict.fromkeys(range(max_path_height(k, n) + 1), 1)
    rows = []
    for m, bounded in enumerate(lattice_diagonal(k, n, seed, survive)):
        counts = [bounded.get(u, 0) for u in range(max_path_height(k, m) + 1)]
        rows.append({u: c - p for u, (p, c) in enumerate(zip([0] + counts, counts)) if c != p})
    return rows


def triangle_rows(kind: str, k: int, ns: range) -> list[TriangleRow]:
    """The rows n in *ns* of the *kind* triangle, from one walk per
    statistic of the box of the last row, charged as a whole before any
    walk.  Each row is checked to sum to the Catalan number, and a height
    row also against the survival counts."""
    _check_work(kind, k, ns)
    histograms = _histograms(kind, k, ns[-1])
    differences = _height_differences(k, ns[-1]) if kind == HEIGHT_TRIANGLE else None
    rows = []
    for n in ns:
        row = TriangleRow(kind, k, n, dict(histograms[n]))
        total = catalan_number(k, n)
        if row.total() != total:
            raise FormulaViolationError(
                f"{kind.capitalize()} row (k={k}, n={n}) does not sum to the Catalan number",
                expected=total,
                actual=row.total(),
                witness=(k, n),
            )
        if differences is not None and differences[n] != row.entries:
            raise FormulaViolationError(
                f"height row (k={k}, n={n}): differences of height-bounded counts "
                "disagree with the max-height histogram",
                expected=differences[n],
                actual=row.entries,
                witness=(k, n),
            )
        rows.append(row)
    return rows


def height_triangle_row(k: int, n: int) -> TriangleRow:
    """Counts of balanced ballot paths of length k*n by exact maximum
    semisymmetric height, cross-checked against differences of the
    height-bounded lattice counts: the last row of `triangle_rows`."""
    return triangle_rows(HEIGHT_TRIANGLE, k, range(n, n + 1))[0]


def narayana_row(k: int, n: int) -> TriangleRow:
    """Counts of balanced ballot paths of length k*n by number of
    semisymmetric peaks, cross-checked against the row total: the last
    row of `triangle_rows`."""
    return triangle_rows(NARAYANA_TRIANGLE, k, range(n, n + 1))[0]


# ---------------------------------------------------------------------------
# Verifiers.  Each returns a VerificationRecord on success and raises
# FormulaViolationError (with expected/actual) on the first mismatch.


class VerificationRecord(NamedTuple):
    name: str
    checks: tuple[str, ...]

    def to_json(self) -> dict:
        return {"name": self.name, "passed": True, "checks": list(self.checks)}


def _expect(condition: bool, message: str, expected, actual, witness=None) -> None:
    if not condition:
        raise FormulaViolationError(message, expected=expected, actual=actual, witness=witness)


_MIN_U_CASES = {
    3: ((2, 3), (0,)),  # bounds u=2,3: count is B0^n
    4: ((4, 5), (0, 3)),  # bounds u=4,5: count is (B0 B3)^n
    5: ((6, 7), (0, 4)),  # bounds u=6,7: count is (B0 B4)^n
}


def verify_min_u_formulas(k: int, n: int) -> VerificationRecord:
    """At the two smallest admissible height bounds, the bounded weighted
    count collapses to a single path's b-part: B0^n (k=3), (B0 B3)^n (k=4),
    or (B0 B4)^n (k=5).  Verified symbolically against the bounded lattice
    DP with the C variables set to 1."""
    if k not in _MIN_U_CASES:
        raise ValueError(f"k must be 3, 4, or 5, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bounds, b_indices = _MIN_U_CASES[k]
    expected = WeightPolynomial({WeightMonomial.from_indices(list(b_indices) * n): 1})
    checks = []
    for u in bounds:
        actual = sswcn_lattice(k, n, u).drop_c()
        _expect(
            actual == expected,
            f"bounded count (k={k}, u={u}, n={n}) does not equal the single-path form",
            expected=expected.text(),
            actual=actual.text(),
        )
        checks.append(f"(k={k}, u={u}, n={n}) = {expected.text()}")
    return VerificationRecord("min-u-formulas", tuple(checks))


def _b_only(w: WeightAssignment) -> WeightAssignment:
    """The same b sequence with all C variables set to 1."""
    return WeightAssignment(b_prefix=w.b_prefix, b_fill=w.b_fill)


def _closed_form_3_4(b0: int, b2: int, n: int) -> complex:
    """Characteristic-root closed form for the (3, u=4) bounded count;
    only valid when the discriminant b0^2 + 10 b0 b2 + 9 b2^2 is nonzero."""
    s = cmath.sqrt(b0 * b0 + 10 * b0 * b2 + 9 * b2 * b2)
    r1 = (b0 + 3 * b2 + s) / 2
    r2 = (b0 + 3 * b2 - s) / 2
    return ((b0 - 3 * b2 + s) / (2 * s)) * r1**n + ((-b0 + 3 * b2 + s) / (2 * s)) * r2**n


def verify_recurrence_3_4(
    n_max: int, assignments: Sequence[WeightAssignment] = (WeightAssignment(),)
) -> VerificationRecord:
    """The (3, u=4) bounded counts satisfy
    a(n) = (b0 + 3 b2) a(n-1) + b0 b2 a(n-2), with a(0)=1, a(1)=b0;
    the floating-point characteristic-root form agrees to 1e-9 relative
    error whenever its discriminant is nonzero."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    checks = []
    for w in assignments:
        w = _b_only(w)
        b0, b2 = w.b(0), w.b(2)
        values = bounded_sequence(3, 4, n_max + 1, w)
        _expect(values[0] == 1, "a(0) must be 1", 1, values[0])
        _expect(values[1] == b0, "a(1) must be b0", b0, values[1])
        for n in range(2, n_max + 1):
            expected = (b0 + 3 * b2) * values[n - 1] + b0 * b2 * values[n - 2]
            _expect(
                values[n] == expected,
                f"recurrence fails at n={n} for b0={b0}, b2={b2}",
                expected,
                values[n],
            )
        disc = b0 * b0 + 10 * b0 * b2 + 9 * b2 * b2
        if disc != 0:
            for n in range(n_max + 1):
                approx = _closed_form_3_4(b0, b2, n)
                _expect(
                    abs(approx - values[n]) <= 1e-9 * max(1, abs(values[n])),
                    f"closed form off at n={n} for b0={b0}, b2={b2}",
                    values[n],
                    approx,
                )
            checks.append(f"b0={b0}, b2={b2}: recurrence + closed form, n <= {n_max}")
        else:
            checks.append(f"b0={b0}, b2={b2}: recurrence only (zero discriminant)")
    return VerificationRecord("recurrence-3-4", tuple(checks))


def verify_closed_4_6_and_5_8(
    n_max: int, assignments: Sequence[WeightAssignment] = (WeightAssignment(),)
) -> VerificationRecord:
    """The (4, u=6) bounded count equals b0 b3 (b3^2 + b0 b3)^(n-1) and the
    (5, u=8) count equals b0 b4 (b4^2 + b0 b4)^(n-1), exactly; both reduce
    to 2^(n-1) when every weight is 1."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    checks = []
    for w in assignments:
        w = _b_only(w)
        for k, u, top in ((4, 6, w.b(3)), (5, 8, w.b(4))):
            base = w.b(0) * top
            growth = top * top + base
            values = bounded_sequence(k, u, n_max + 1, w)
            for n in range(1, n_max + 1):
                expected = base * growth ** (n - 1)
                _expect(
                    values[n] == expected,
                    f"closed form fails at (k={k}, u={u}, n={n})",
                    expected,
                    values[n],
                )
            checks.append(
                f"(k={k}, u={u}): b0*b{k - 1}*(b{k - 1}^2 + b0 b{k - 1})^(n-1), n <= {n_max}"
            )
    return VerificationRecord("closed-4-6-and-5-8", tuple(checks))


def verify_rightmost_entries(k: int, n: int) -> VerificationRecord:
    """The rightmost height-row entry (paths of maximal height) equals
    catalan(k/2, n)^2 for even k, and is at least
    catalan(ceil(k/2), n) * catalan(floor(k/2), n) for every k."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    row = height_triangle_row(k, n)
    top = max_path_height(k, n)
    rightmost = row.entries.get(top, 0)
    checks = []
    lower = catalan_number((k + 1) // 2, n) * catalan_number(k // 2, n)
    _expect(
        rightmost >= lower,
        f"rightmost entry below the product-of-Catalans bound at (k={k}, n={n})",
        f">= {lower}",
        rightmost,
    )
    checks.append(f"(k={k}, n={n}): rightmost {rightmost} >= {lower}")
    if k % 2 == 0:
        square = catalan_number(k // 2, n) ** 2
        _expect(
            rightmost == square,
            f"rightmost entry is not a squared Catalan number at (k={k}, n={n})",
            square,
            rightmost,
        )
        checks.append(f"(k={k}, n={n}): rightmost {rightmost} = C_{{{k // 2},{n}}}^2")
    return VerificationRecord("rightmost-entries", tuple(checks))


def _quarter_plane_closed_walks(length: int) -> int:
    """Closed walks at the origin of the nonnegative quadrant with steps
    (1,0), (-1,1), (0,-1), whose last (1,0) step precedes their first
    (0,-1) step; an independent model for the rightmost 3-dimensional
    height entries.  The state tracks whether a (0,-1) step has occurred,
    after which (1,0) steps are forbidden."""
    current = {(0, 0, False): 1}
    for _ in range(length):
        nxt: dict[tuple[int, int, bool], int] = {}
        for (x, y, seen_down), ways in current.items():
            for dx, dy in ((1, 0), (-1, 1), (0, -1)):
                if seen_down and (dx, dy) == (1, 0):
                    continue
                x2, y2 = x + dx, y + dy
                if x2 >= 0 and y2 >= 0:
                    key = (x2, y2, seen_down or (dx, dy) == (0, -1))
                    nxt[key] = nxt.get(key, 0) + ways
        current = nxt
    return current.get((0, 0, True), 0)


def verify_dprime_3_2n(n_max: int) -> VerificationRecord:
    """The rightmost 3-dimensional height entry (u = 2n) equals
    C(3n,n) - 2 C(3n,n-1) + C(3n,n-2), and independently equals the number
    of closed quarter-plane walks of length 3n with steps (1,0), (-1,1),
    (0,-1)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    checks = []
    for row in triangle_rows(HEIGHT_TRIANGLE, 3, range(1, n_max + 1)):
        n = row.n
        actual = row.entries.get(2 * n, 0)
        binomial = (
            math.comb(3 * n, n)
            - 2 * math.comb(3 * n, n - 1)
            + (math.comb(3 * n, n - 2) if n >= 2 else 0)
        )
        _expect(
            actual == binomial,
            f"binomial formula fails at n={n}",
            binomial,
            actual,
        )
        walks = _quarter_plane_closed_walks(3 * n)
        _expect(
            actual == walks,
            f"quarter-plane walk count disagrees at n={n}",
            walks,
            actual,
        )
        checks.append(f"n={n}: {actual} = binomial form = closed-walk count")
    return VerificationRecord("dprime-3-2n", tuple(checks))


def verify_narayana_one_peak(k: int, n: int) -> VerificationRecord:
    """For even k, the number of one-peak paths equals
    catalan(k/2, n)^2, which is also the rightmost height-row entry."""
    if k % 2:
        raise ValueError(f"k must be even, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    one_peak = narayana_row(k, n).entries.get(1, 0)
    square = catalan_number(k // 2, n) ** 2
    _expect(
        one_peak == square,
        f"one-peak count is not a squared Catalan number at (k={k}, n={n})",
        square,
        one_peak,
    )
    rightmost = height_triangle_row(k, n).entries.get(max_path_height(k, n), 0)
    _expect(
        one_peak == rightmost,
        f"one-peak count differs from the rightmost height entry at (k={k}, n={n})",
        rightmost,
        one_peak,
    )
    return VerificationRecord(
        "narayana-one-peak", (f"(k={k}, n={n}): {one_peak} = C^2 = rightmost height entry",)
    )


def scan_power_of_two(k_max: int, u_max: int, n_max: int) -> list[tuple[int, int]]:
    """Small-(k, u) scan for bounds where the bounded count looks like
    2^(n-1) for n = 1..n_max.  A search helper only — no completeness claim.

    Each (k, u) is dropped when its counts c_1 and c_2 (those with
    n <= n_max), read from one height-bounded lattice walk, are not
    2^(n-1); only the survivors build a transfer matrix, each charged on
    its own, for the whole sequence.  The walks of the pairs are charged
    first, k by k, each as its unbounded box."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    first = min(n_max, 2)
    what = f"the scan-pow2 prefilter at (k <= {k_max}, u <= {u_max})"
    seconds, ks = 0.0, []
    for k in range(2, k_max + 1):
        if min_path_height(k) > u_max:  # and so for every larger k
            break
        edges = k * math.comb(first + k - 1, k)
        walk = walk_cost(k, edges, edges)
        seconds += min(u_max + 1 - min_path_height(k), 2**200) * walk[0]
        charge(what, seconds, walk[1])
        ks.append(k)
    step = _value_step(ALL_ONES, None)
    hits = []
    for k in ks:
        for u in range(min_path_height(k), u_max + 1):
            counts = lattice_diagonal(k, first, {None: 1}, step, height_bound=u)[1:]
            if [c.get(None, 0) for c in counts] == [1, 2][:first]:
                sequence = bounded_sequence(k, u, n_max + 1)[1:]
                if all(c == 1 << n for n, c in enumerate(sequence)):
                    hits.append((k, u))
    return hits


ALL_VERIFIERS = {
    "min-u-formulas": lambda: [verify_min_u_formulas(k, n) for k in (3, 4, 5) for n in (1, 2, 3)],
    "recurrence-3-4": lambda: [verify_recurrence_3_4(8)],
    "closed-4-6-and-5-8": lambda: [verify_closed_4_6_and_5_8(8)],
    "rightmost-entries": lambda: [
        verify_rightmost_entries(k, n) for k, n in ((2, 3), (3, 3), (4, 2), (4, 3))
    ],
    "dprime-3-2n": lambda: [verify_dprime_3_2n(4)],
    "narayana-one-peak": lambda: [
        verify_narayana_one_peak(k, n) for k, n in ((2, 3), (4, 2), (4, 3))
    ],
}


def run_verifiers(name: str = "all") -> list[VerificationRecord]:
    """Run one named verifier family, or all of them."""
    if name == "all":
        records = []
        for runner in ALL_VERIFIERS.values():
            records.extend(runner())
        return records
    if name not in ALL_VERIFIERS:
        raise ValueError(f"unknown verifier {name!r}; choose from {sorted(ALL_VERIFIERS)} or 'all'")
    return ALL_VERIFIERS[name]()
