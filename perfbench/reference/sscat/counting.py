"""Exact counting: closed formula, brute force, and the transfer-matrix DP.

The three routes validate each other: `catalan_number` is the factorial
product formula, the `*_brute` functions sum weights over explicitly
enumerated paths, and `bounded_sswcn_dp` iterates the boundary-state
transfer matrix.  Wherever their domains overlap they must agree exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import InvalidStateError, TooLargeError
from .paths import (
    BallotPath,
    Point,
    enumerate_paths,
    enumerate_sub_paths,
    height_coefficients,
    is_ballot_point,
)
from .weights import (
    ALL_ONES,
    WeightAssignment,
    WeightMonomial,
    WeightPolynomial,
    ss_height_point,
    sswt,
    legacy_wt,
)

DEFAULT_PATH_CAP = 10**7


def catalan_number(k: int, n: int) -> int:
    """The n-th k-dimensional Catalan number, 0!1!...(n-1)! (kn)! / (k!...(k+n-1)!).

    Accepts k >= 1 (the degenerate k=1 column is identically 1)."""
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    num = math.prod(math.factorial(i) for i in range(n)) * math.factorial(k * n)
    den = math.prod(math.factorial(k + i) for i in range(n))
    quotient, remainder = divmod(num, den)
    assert remainder == 0
    return quotient


def _check_cap(k: int, n: int, cap: int) -> None:
    total = catalan_number(k, n)
    if total > cap:
        raise TooLargeError(
            f"enumerating {total} paths for (k={k}, n={n}) exceeds the cap of {cap}"
        )


def sswcn_brute(k: int, n: int, cap: int = DEFAULT_PATH_CAP) -> WeightPolynomial:
    """Sum of semisymmetric weights over all balanced ballot paths of
    length k*n, as a symbolic polynomial."""
    _check_cap(k, n, cap)
    poly = WeightPolynomial()
    for path in enumerate_paths(k, n):
        poly.add_monomial(sswt(path))
    return poly


def bounded_sswcn_brute(
    k: int, u: int, n: int, cap: int = DEFAULT_PATH_CAP
) -> WeightPolynomial:
    """Like `sswcn_brute`, restricted to paths of semisymmetric height <= u."""
    _check_cap(k, n, cap)
    poly = WeightPolynomial()
    for path in enumerate_paths(k, n, height_bound=u):
        poly.add_monomial(sswt(path))
    return poly


def sub_sswcn_brute(
    k: int, u: int, a: Point, n: int, cap: int = DEFAULT_PATH_CAP
) -> WeightPolynomial:
    """Sum of weights over height-bounded sub-ballot paths from *a* to (n,...,n)."""
    a = tuple(a)
    if not is_ballot_point(a) or ss_height_point(a) > u:
        raise InvalidStateError(f"{a} is not a ballot point with height <= {u}")
    _check_cap(k, n, cap)
    poly = WeightPolynomial()
    for path in enumerate_sub_paths(k, a, (n,) * k, height_bound=u):
        poly.add_monomial(sswt(path))
    return poly


def legacy_wcn_brute(k: int, n: int, cap: int = DEFAULT_PATH_CAP) -> WeightPolynomial:
    """Sum of legacy weights wt_b over all balanced ballot paths; kept for
    distinctness checks against the semisymmetric generalization."""
    _check_cap(k, n, cap)
    poly = WeightPolynomial()
    for path in enumerate_paths(k, n):
        poly.add_monomial(legacy_wt(path))
    return poly


# ---------------------------------------------------------------------------
# Transfer-matrix DP over normalized boundary states.


def _block_transitions(
    k: int, u: int, a: Point
) -> Iterator[tuple[tuple[int, ...], Point]]:
    """All k-step sub-ballot continuations from *a* with height <= u,
    yielded as (steps, endpoint) in depth-first order."""
    coeffs = height_coefficients(k)
    x = list(a)
    path: list[int] = []

    def rec(depth: int, g: int):
        if depth == k:
            yield tuple(path), tuple(x)
            return
        for d in range(1, k + 1):
            i = d - 1
            if d > 1 and x[i] >= x[i - 1]:
                continue
            g2 = g + coeffs[i]
            if g2 > u:
                continue
            x[i] += 1
            path.append(d)
            yield from rec(depth + 1, g2)
            x[i] -= 1
            path.pop()

    yield from rec(0, sum(c * v for c, v in zip(coeffs, a)))


def _normalize(p: Point) -> Point:
    """Subtract x_k * (1,...,1); height-preserving since the g coefficients
    sum to zero."""
    shift = p[-1]
    return tuple(c - shift for c in p)


@dataclass(frozen=True)
class StateSpace:
    """Normalized boundary states for the bound u: ballot points with last
    coordinate 0 reachable from the origin by k-step blocks."""

    k: int
    u: int
    states: tuple[Point, ...]

    def index_of(self, p: Point) -> int:
        return self.states.index(tuple(p))

    def __len__(self) -> int:
        return len(self.states)

    def to_json(self) -> dict:
        return {"k": self.k, "u": self.u, "states": [list(s) for s in self.states]}


@lru_cache(maxsize=None)
def build_state_space(k: int, u: int) -> StateSpace:
    """BFS closure from the all-zero state under normalized k-step blocks,
    in discovery order (all-zero first, new states per level in sorted order)."""
    zero = (0,) * k
    states = [zero]
    seen = {zero}
    frontier = [zero]
    while frontier:
        discovered = set()
        for state in frontier:
            for _, endpoint in _block_transitions(k, u, state):
                w = _normalize(endpoint)
                if w not in seen:
                    discovered.add(w)
        frontier = sorted(discovered)
        states.extend(frontier)
        seen.update(frontier)
    space = StateSpace(k, u, tuple(states))
    for s in space.states:
        g = ss_height_point(s) if k >= 2 else 0
        assert s[-1] == 0 and g <= u
    return space


@dataclass(frozen=True)
class TransferMatrix:
    """Symbolic k-step transition matrix over the state space.

    Entry (i, j) sums sswt over the k-step sub-ballot paths from state i to
    any endpoint normalizing to state j, all within the height bound."""

    space: StateSpace
    entries: tuple[tuple[WeightPolynomial, ...], ...]

    def evaluated(
        self, w: WeightAssignment, modulus: Optional[int] = None
    ) -> list[list[int]]:
        return [
            [poly.evaluate(w, modulus) for poly in row] for row in self.entries
        ]

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "entries": [[poly.to_json() for poly in row] for row in self.entries],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


@lru_cache(maxsize=None)
def _transfer_matrix(k: int, u: int) -> TransferMatrix:
    space = build_state_space(k, u)
    size = len(space)
    index = {s: i for i, s in enumerate(space.states)}
    rows = [[WeightPolynomial() for _ in range(size)] for _ in range(size)]
    for i, state in enumerate(space.states):
        for steps, endpoint in _block_transitions(k, u, state):
            j = index[_normalize(endpoint)]
            mono = sswt(BallotPath(k, steps, origin=state))
            rows[i][j].add_monomial(mono)
    return TransferMatrix(space, tuple(tuple(row) for row in rows))


def build_transfer_matrix(space: StateSpace) -> TransferMatrix:
    return _transfer_matrix(space.k, space.u)


def bounded_sswcn_dp(
    k: int,
    u: int,
    n: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> int:
    """Evaluate the u-bounded weighted sum by iterating gamma_n = T gamma_{n-1}
    from the unit vector at the all-zero state."""
    matrix = _transfer_matrix(k, u).evaluated(w, modulus)
    size = len(matrix)
    gamma = [0] * size
    gamma[0] = 1
    for _ in range(n):
        gamma = [
            sum(matrix[i][j] * gamma[j] for j in range(size)) for i in range(size)
        ]
        if modulus is not None:
            gamma = [v % modulus for v in gamma]
    return gamma[0]


def bounded_catalan(k: int, u: int, n: int) -> int:
    """Number of balanced ballot paths of length k*n with semisymmetric
    height at most u (all-ones weights, exact integers)."""
    return bounded_sswcn_dp(k, u, n)


def max_path_height(k: int, n: int) -> int:
    """Largest semisymmetric height attainable by a length-k*n balanced path."""
    return (k // 2) * ((k + 1) // 2) * n


def min_path_height(k: int) -> int:
    """Smallest semisymmetric height of any nonempty balanced path."""
    return (k // 2) * ((k + 1) // 2)
