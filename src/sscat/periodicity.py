"""Eventual periodicity of weighted counts modulo m.

The bounded sequence is read off the transfer-matrix orbit over residues,
gamma_n = T^n e_0 mod m, so the vector of boundary-state values must
eventually cycle by pigeonhole; the cycle gives a preperiod t and period
omega that the scalar sequence inherits, and the scalar sequence's minimal
period divides omega.  The orbit is linear, so `detect_eventual_period`
finds (t, omega) in O(sqrt(omega)) matrix-vector steps with bounded memory
(Fitting's lemma, then baby-step giant-step) instead of walking the whole
cycle.  For the unbounded sequence, two
divisibility certificates on the weight assignment justify truncating at a
finite height bound, after which the bounded machinery applies; without
one, the lattice DP mod m gives the term directly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple, Optional

from .counting import _apply, _transfer_matrix, bounded_sswcn_dp, sswcn_lattice_value
from .errors import FormulaViolationError, TooLargeError
from .weights import WeightAssignment

SEARCH_HORIZON = 64

# Budget of one baby-step giant-step round of the period search: its work
# in multiply-adds (B giant steps of a dense S x S matrix plus one
# squaring), and the baby-step vectors it holds, which bound its memory.
PERIOD_SEARCH_BUDGET = 2**24
PERIOD_TABLE_LIMIT = 2**16

Rows = list[list[tuple[int, int]]]
Vector = tuple[int, ...]


class PeriodReport(NamedTuple):
    """Detected eventual periodicity of a residue sequence.

    `preperiod` and `vector_period` are the minimal (t, omega) of the
    boundary-vector orbit; `scalar_period` is the possibly smaller minimal
    period of the scalar sequence from t on, a divisor of omega.  The orbit
    repeat proves both periods for every n >= t; `verified_horizon`,
    t + 4 * omega, is reported for readers that check a finite prefix.
    """

    preperiod: int
    vector_period: int
    scalar_period: int
    modulus: int
    verified_horizon: int
    certificate: str = "vector-orbit cycle"


def _compose(a: Rows, b: Rows, m: int) -> Rows:
    """The sparse rows of the matrix product A B mod m."""
    size = len(b)
    out = []
    for row in a:
        acc = [0] * size
        for l, v in row:
            for j, x in b[l]:
                acc[j] += v * x
        out.append([(j, x % m) for j, x in enumerate(acc) if x % m])
    return out


def _prime_factors(n: int) -> list[int]:
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def detect_eventual_period(
    k: int, u: int, w: WeightAssignment = WeightAssignment(), m: int = 2
) -> PeriodReport:
    """Find the eventual period of the u-bounded weighted count mod m.

    The orbit gamma_n = T^n e_0 of the transfer matrix T over Z/m has a
    minimal preperiod t and period omega; the scalar sequence (component
    0) inherits both, and its minimal period from t on divides omega.
    With S states, the search runs in four stages:

    * Fitting's lemma: (Z/m)^S has length S * Omega(m) <= S * log2(m) as a
      module, so the images T^n (Z/m)^S stop shrinking after
      N = S * m.bit_length() steps, and T permutes the last image.  So
      y = gamma_N lies on the cycle, and t <= N.
    * Baby-step giant-step (Shanks) on y, with B = 1, 2, 4, ...: baby steps
      store {T^i y: i} for i < B; if one returns to y, omega is its index.
      Otherwise omega >= B, the stored vectors are distinct, and the giant
      steps z = G^j y, G = T^B mod m, j = 1..B, first meet a stored T^i y
      at the least j with jB >= omega.  T is a bijection on the cycle, so
      omega divides jB - i, and 0 < jB - i < omega + B <= 2 omega gives
      omega = jB - i.  A round covers every omega <= B^2 in O(B) steps,
      and G for the next round is G squared.
    * t is the first n with gamma_n = gamma_{n + omega}, stepping both
      orbits together from e_0 and T^omega e_0.
    * The scalar period: starting from d = omega, divide d by each prime
      factor p of omega while d / p is still a period.  Candidate d is a
      period from t iff e_0^T T^n (T^d - I) gamma_t = 0 for all n >= 0;
      by Cayley-Hamilton over Z/m this sequence obeys the order-S
      recurrence of the characteristic polynomial of T, so S zero terms in
      a row, n = 0..S-1, make it zero everywhere.

    A round whose work (B + S) * S^2 (B giant steps and one squaring of
    the S x S matrix) would pass `PERIOD_SEARCH_BUDGET`, or whose B would
    pass `PERIOD_TABLE_LIMIT`, raises `TooLargeError` instead; every
    omega up to 2^32 fits the table.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    rows = _transfer_matrix(k, u).evaluated(w, m)
    size = len(rows)
    powers = [rows]  # powers[i] = T^(2^i) mod m

    def power(i: int) -> Rows:
        while len(powers) <= i:
            powers.append(_compose(powers[-1], powers[-1], m))
        return powers[i]

    def advance(vector: Vector, steps: int) -> Vector:
        """T^steps vector mod m, by the binary powers of T."""
        for i in range(steps.bit_length()):
            if steps >> i & 1:
                vector = _apply(power(i), vector, m)
        return vector

    fitting = size * m.bit_length()
    e0 = (1,) + (0,) * (size - 1)
    y = e0
    for _ in range(fitting):
        y = _apply(rows, y, m)
    omega = _cycle_length(rows, y, m, power, k, u)

    gamma, shifted = e0, advance(e0, omega)
    for t in range(fitting + 1):
        if gamma == shifted:
            break
        gamma, shifted = _apply(rows, gamma, m), _apply(rows, shifted, m)
    else:
        raise FormulaViolationError(
            f"gamma_n and gamma_(n+{omega}) differ for every n up to the "
            f"Fitting bound {fitting}",
            expected=f"a preperiod <= {fitting}",
            actual=f"none found with vector period {omega}",
            witness=(k, u, m),
        )

    def is_period(d: int) -> bool:
        a, b = gamma, advance(gamma, d)
        for _ in range(size):
            if a[0] != b[0]:
                return False
            a, b = _apply(rows, a, m), _apply(rows, b, m)
        return True

    scalar = omega
    for p in _prime_factors(omega):
        while scalar % p == 0 and is_period(scalar // p):
            scalar //= p
    return PeriodReport(t, omega, scalar, m, t + 4 * omega)


def _cycle_length(
    rows: Rows, y: Vector, m: int, power: Callable[[int], Rows], k: int, u: int
) -> int:
    """The period of y on its cycle under T, by baby-step giant-step with
    B = 2^r in round r; power(r) is G = T^B mod m.  k and u name the
    matrix in the budget error."""
    size = len(rows)
    baby = {y: 0}
    z = y
    r = 0
    while True:
        steps = 1 << r
        if (
            steps > PERIOD_TABLE_LIMIT
            or (steps + size) * size * size > PERIOD_SEARCH_BUDGET
        ):
            bound = (
                f"PERIOD_TABLE_LIMIT = {PERIOD_TABLE_LIMIT} baby steps"
                if steps > PERIOD_TABLE_LIMIT
                else f"PERIOD_SEARCH_BUDGET = {PERIOD_SEARCH_BUDGET} multiply-adds"
            )
            # the rounds before r covered every omega up to (B / 2)^2
            searched = f"no vector period up to {(steps // 2) ** 2}" if r else "no round fits"
            raise TooLargeError(
                f"period search for (k={k}, u={u}, m={m}) stopped at its budget, "
                f"{bound}, among {size} states: {searched}"
            )
        while len(baby) < steps:
            z = _apply(rows, z, m)
            if z == y:
                return len(baby)
            baby[z] = len(baby)
        giant = power(r)
        z_giant = y
        for j in range(1, steps + 1):
            z_giant = _apply(giant, z_giant, m)
            i = baby.get(z_giant)
            if i is not None:
                return j * steps - i
        r += 1


def check_entrywise_divisibility(
    w: WeightAssignment, m: int, k: int
) -> Optional[tuple[int, int]]:
    """Smallest u <= SEARCH_HORIZON such that b_u..b_{u+k-1} are all
    divisible by m (condition 1) or c_{u-1}..c_{u+k-2} are (condition 2).

    Returns (u, condition) or None.  Either condition certifies that the
    unbounded count mod m equals the (u+k-2)-bounded count mod m.
    """
    for u in range(SEARCH_HORIZON + 1):
        if all(w.b(u + i) % m == 0 for i in range(k)):
            return u, 1
        if u >= 1 and all(w.c(u - 1 + i) % m == 0 for i in range(k)):
            return u, 2
    return None


def check_pairwise_product_divisibility(
    w: WeightAssignment, m: int, k: int
) -> Optional[int]:
    """Smallest u <= SEARCH_HORIZON such that b_j * b_j' is divisible by m
    for every pair of distinct j, j' in {u, ..., u+2k-1}.

    Certifies that the unbounded count mod m equals the (u+2k-1)-bounded
    count mod m.
    """
    for u in range(SEARCH_HORIZON + 1):
        values = [w.b(u + i) % m for i in range(2 * k)]
        if all(x * y % m == 0 for x, y in combinations(values, 2)):
            return u
    return None


class TruncationCertificate(NamedTuple):
    """Why cutting the height at `bound` preserves the count mod m."""

    kind: str  # "entrywise" | "pairwise-product" | "lattice"
    u: Optional[int]
    bound: Optional[int]
    condition: Optional[int] = None


def unbounded_sswcn_mod(
    k: int, n: int, w: WeightAssignment, m: int
) -> tuple[int, TruncationCertificate]:
    """The unbounded weighted count mod m, via a certified height
    truncation when a divisibility hypothesis holds, otherwise by the
    lattice DP mod m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    entrywise = check_entrywise_divisibility(w, m, k)
    if entrywise is not None:
        u, condition = entrywise
        bound = u + k - 2
        cert = TruncationCertificate("entrywise", u, bound, condition)
    else:
        u = check_pairwise_product_divisibility(w, m, k)
        if u is None:
            value = sswcn_lattice_value(k, n, w, m)
            return value, TruncationCertificate("lattice", None, None)
        bound = u + 2 * k - 1
        cert = TruncationCertificate("pairwise-product", u, bound)
    return bounded_sswcn_dp(k, bound, n, w, m), cert
