"""Eventual periodicity of weighted counts modulo m.

The bounded sequence is read off the transfer-matrix orbit over residues
(`counting._orbit`), so the vector of boundary-state values must eventually
cycle by pigeonhole; the first repeated vector gives a preperiod t and
period omega that the scalar sequence inherits, and the scalar sequence's
minimal period divides omega.  For the unbounded sequence, two
divisibility certificates on the weight assignment justify truncating at a
finite height bound, after which the bounded machinery applies; without
one, the lattice DP mod m gives the term directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Optional

from .counting import _orbit, bounded_sswcn_dp, sswcn_lattice_value
from .weights import WeightAssignment

DEFAULT_SEARCH_HORIZON = 64


@dataclass(frozen=True)
class PeriodReport:
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

    def to_json(self) -> dict:
        return {
            "preperiod": self.preperiod,
            "vector_period": self.vector_period,
            "scalar_period": self.scalar_period,
            "modulus": self.modulus,
            "verified_horizon": self.verified_horizon,
            "certificate": self.certificate,
        }


def _divisors(n: int) -> list[int]:
    return sorted(d for d in range(1, n + 1) if n % d == 0)


def detect_eventual_period(
    k: int, u: int, w: WeightAssignment = WeightAssignment(), m: int = 2
) -> PeriodReport:
    """Find the eventual period of the u-bounded weighted count mod m.

    Iterates the boundary vector until a full vector state repeats (bound
    m**l + 1 steps for l states), giving the minimal preperiod t and period
    omega of the orbit.  gamma_{t+omega} = gamma_t makes the scalar sequence
    periodic with period omega from t on, so its minimal period is the
    least divisor d of omega under which the omega terms from t on are
    invariant by a cyclic shift.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    seen: dict[tuple[int, ...], int] = {}
    sequence: list[int] = []
    for index, gamma in enumerate(_orbit(k, u, w, m)):
        if gamma in seen:
            break
        seen[gamma] = index
        sequence.append(gamma[0])
    t = seen[gamma]
    omega = index - t
    scalar = next(
        d
        for d in _divisors(omega)
        if all(
            sequence[t + i] == sequence[t + (i + d) % omega] for i in range(omega)
        )
    )
    return PeriodReport(t, omega, scalar, m, t + 4 * omega)


def bounded_sequence_mod(
    k: int, u: int, count: int, w: WeightAssignment = WeightAssignment(), m: int = 2
) -> list[int]:
    """First *count* terms of the u-bounded weighted count mod m."""
    return [gamma[0] for gamma in islice(_orbit(k, u, w, m), count)]


def _scan(horizon: int, window: Callable[[int], bool], start: int) -> Optional[int]:
    for u in range(start, horizon + 1):
        if window(u):
            return u
    return None


def check_entrywise_divisibility(
    w: WeightAssignment,
    m: int,
    k: int,
    search_horizon: int = DEFAULT_SEARCH_HORIZON,
) -> Optional[tuple[int, int]]:
    """Smallest u within the horizon such that b_u..b_{u+k-1} are all
    divisible by m (condition 1) or c_{u-1}..c_{u+k-2} are (condition 2).

    Returns (u, condition) or None.  Either condition certifies that the
    unbounded count mod m equals the (u+k-2)-bounded count mod m.
    """

    def either(u: int) -> bool:
        return _cond(u) is not None

    def _cond(u: int) -> Optional[int]:
        if all(w.b(u + i) % m == 0 for i in range(k)):
            return 1
        if u >= 1 and all(w.c(u - 1 + i) % m == 0 for i in range(k)):
            return 2
        return None

    u = _scan(search_horizon, either, 0)
    return None if u is None else (u, _cond(u))


def check_pairwise_product_divisibility(
    w: WeightAssignment,
    m: int,
    k: int,
    search_horizon: int = DEFAULT_SEARCH_HORIZON,
) -> Optional[int]:
    """Smallest u within the horizon such that b_j * b_j' is divisible by m
    for every pair of distinct j, j' in {u, ..., u+2k-1}.

    Certifies that the unbounded count mod m equals the (u+2k-1)-bounded
    count mod m.
    """

    def window(u: int) -> bool:
        values = [w.b(u + i) % m for i in range(2 * k)]
        return all(x * y % m == 0 for x, y in combinations(values, 2))

    return _scan(search_horizon, window, 0)


@dataclass(frozen=True)
class TruncationCertificate:
    """Why cutting the height at `bound` preserves the count mod m."""

    kind: str  # "entrywise" | "pairwise-product" | "lattice"
    u: Optional[int]
    bound: Optional[int]
    condition: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "u": self.u,
            "bound": self.bound,
            "condition": self.condition,
        }


def unbounded_sswcn_mod(
    k: int,
    n: int,
    w: WeightAssignment,
    m: int,
    search_horizon: int = DEFAULT_SEARCH_HORIZON,
) -> tuple[int, TruncationCertificate]:
    """The unbounded weighted count mod m, via a certified height
    truncation when a divisibility hypothesis holds, otherwise by the
    lattice DP mod m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    entrywise = check_entrywise_divisibility(w, m, k, search_horizon)
    if entrywise is not None:
        u, condition = entrywise
        bound = u + k - 2
        cert = TruncationCertificate("entrywise", u, bound, condition)
    else:
        u = check_pairwise_product_divisibility(w, m, k, search_horizon)
        if u is None:
            value = sswcn_lattice_value(k, n, w, m)
            return value, TruncationCertificate("lattice", None, None)
        bound = u + 2 * k - 1
        cert = TruncationCertificate("pairwise-product", u, bound)
    return bounded_sswcn_dp(k, bound, n, w, m), cert
