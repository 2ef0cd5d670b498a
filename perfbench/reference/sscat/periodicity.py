"""Eventual periodicity of weighted counts modulo m.

The bounded sequence is computed by iterating the transfer matrix over
residues, so the vector of boundary-state values must eventually cycle by
pigeonhole; cycle detection on the vector orbit yields a preperiod t and
period omega that the scalar sequence inherits.  For the unbounded
sequence, two divisibility certificates on the weight assignment justify
truncating at a finite height bound, after which the bounded machinery
applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .counting import DEFAULT_PATH_CAP, _transfer_matrix, catalan_number, sswcn_brute
from .errors import UncomputableError
from .weights import WeightAssignment

DEFAULT_SEARCH_HORIZON = 64


@dataclass(frozen=True)
class PeriodReport:
    """Detected eventual periodicity of a residue sequence.

    `preperiod` and `vector_period` are the minimal (t, omega) of the
    boundary-vector orbit; `scalar_period` is the possibly smaller minimal
    period of the scalar sequence itself, found among divisors of omega on
    the verified horizon.
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

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _divisors(n: int) -> list[int]:
    return sorted(d for d in range(1, n + 1) if n % d == 0)


def detect_eventual_period(
    k: int, u: int, w: WeightAssignment = WeightAssignment(), m: int = 2
) -> PeriodReport:
    """Find the eventual period of the u-bounded weighted count mod m.

    Iterates the boundary vector until a full vector state repeats (bound
    m**l + 1 steps for l states), giving the minimal preperiod/period of
    the orbit, then re-verifies the scalar sequence over three extra
    periods and minimizes its period over divisors of the vector period.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    matrix = _transfer_matrix(k, u).evaluated(w, m)
    size = len(matrix)
    gamma = tuple([1] + [0] * (size - 1))
    seen: dict[tuple[int, ...], int] = {}
    sequence: list[int] = []
    index = 0
    while gamma not in seen:
        seen[gamma] = index
        sequence.append(gamma[0])
        gamma = tuple(
            sum(matrix[i][j] * gamma[j] for j in range(size)) % m for i in range(size)
        )
        index += 1
    t = seen[gamma]
    omega = index - t

    # Extend the scalar sequence far enough to re-verify three extra periods.
    horizon = t + 4 * omega
    while len(sequence) <= horizon:
        sequence.append(sequence[t + (len(sequence) - t) % omega])
    for n in range(t, horizon - omega + 1):
        assert sequence[n] == sequence[n + omega]

    scalar = omega
    for d in _divisors(omega):
        if all(
            sequence[n] == sequence[n + d] for n in range(t, horizon - d + 1)
        ):
            scalar = d
            break
    return PeriodReport(t, omega, scalar, m, horizon)


def bounded_sequence_mod(
    k: int, u: int, count: int, w: WeightAssignment = WeightAssignment(), m: int = 2
) -> list[int]:
    """First *count* terms of the u-bounded weighted count mod m."""
    matrix = _transfer_matrix(k, u).evaluated(w, m)
    size = len(matrix)
    gamma = [1] + [0] * (size - 1)
    out = []
    for _ in range(count):
        out.append(gamma[0])
        gamma = [
            sum(matrix[i][j] * gamma[j] for j in range(size)) % m for i in range(size)
        ]
    return out


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

    kind: str  # "entrywise" | "pairwise-product" | "brute-force"
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
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[int, TruncationCertificate]:
    """The unbounded weighted count mod m, via a certified height
    truncation when a divisibility hypothesis holds, otherwise by brute
    force when small enough."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    entrywise = check_entrywise_divisibility(w, m, k, search_horizon)
    if entrywise is not None:
        u, condition = entrywise
        bound = u + k - 2
        cert = TruncationCertificate("entrywise", u, bound, condition)
    else:
        u = check_pairwise_product_divisibility(w, m, k, search_horizon)
        if u is not None:
            bound = u + 2 * k - 1
            cert = TruncationCertificate("pairwise-product", u, bound)
        elif catalan_number(k, n) <= cap:
            value = sswcn_brute(k, n, cap).evaluate(w, m)
            return value, TruncationCertificate("brute-force", None, None)
        else:
            raise UncomputableError(
                "neither the entrywise nor the pairwise-product divisibility "
                f"hypothesis holds for m={m} within horizon {search_horizon}, "
                f"and enumerating (k={k}, n={n}) exceeds the cap"
            )
    from .counting import bounded_sswcn_dp

    return bounded_sswcn_dp(k, bound, n, w, m), cert
