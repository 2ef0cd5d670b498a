"""Exact counting: closed formula, lattice DP, transfer-matrix DP, and
brute force.

`catalan_number` is the hook-length formula.  The `sswcn_lattice*`
functions run the layered DP over the ballot points of the box.
`bounded_sswcn_dp` and `bounded_sequence` iterate the boundary-state
transfer matrix, whose entries the same DP sums over the k-step blocks
from each state.  The `*_brute` functions, the test oracle, share one
loop, `_brute_sum`, that sums weights over enumerated paths.  Wherever
these routes overlap they agree exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    FormulaViolationError,
    InvalidDimensionError,
    InvalidStateError,
    TooLargeError,
)
from .paths import (
    BallotPath,
    Point,
    _Frozen,
    enumerate_paths,
    enumerate_sub_paths,
    is_ballot_point,
    lattice_sum,
    lattice_walk,
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
    """The n-th k-dimensional Catalan number: the standard Young tableaux of
    the k x n rectangle, (kn)! over the product of its hook lengths i + j + 1
    (0 <= i < k, 0 <= j < n).

    Accepts k >= 1 (the degenerate k=1 column is identically 1)."""
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    hooks = math.prod(i + j + 1 for i in range(k) for j in range(n))
    quotient, remainder = divmod(math.factorial(k * n), hooks)
    if remainder:
        raise FormulaViolationError(
            f"the hook-length formula for (k={k}, n={n}) is not an integer",
            expected=0,
            actual=remainder,
            witness=(k, n),
        )
    return quotient


def _check_cap(k: int, n: int) -> None:
    """Raise `TooLargeError` when (k, n) has more than `DEFAULT_PATH_CAP`
    paths.  The count never decreases in n, since appending the steps
    1..k keeps a path balanced and ballot, so the first m <= n over the cap
    decides (m <= 16 for every k >= 2) without the (kn)!-sized count."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    for m in range(n + 1):
        if catalan_number(k, m) > DEFAULT_PATH_CAP:
            raise TooLargeError(
                f"(k={k}, n={n}) has more paths than the cap of {DEFAULT_PATH_CAP}"
            )


def _brute_sum(
    k: int, walks: Iterable[tuple[int, ...]], origin: Point, weight
) -> WeightPolynomial:
    """The loop of the brute-force oracles: rebuild each enumerated walk as
    a `BallotPath` from *origin*, whose constructor checks it again, and
    sum its *weight*."""
    poly = WeightPolynomial()
    for steps in walks:
        poly.add_monomial(weight(BallotPath(k, steps, origin)))
    return poly


def sswcn_brute(k: int, n: int) -> WeightPolynomial:
    """Sum of semisymmetric weights over all balanced ballot paths of
    length k*n, as a symbolic polynomial."""
    _check_cap(k, n)
    return _brute_sum(k, enumerate_paths(k, n), (0,) * k, sswt)


def bounded_sswcn_brute(k: int, u: int, n: int) -> WeightPolynomial:
    """Like `sswcn_brute`, restricted to paths of semisymmetric height <= u."""
    _check_cap(k, n)
    return _brute_sum(k, enumerate_paths(k, n, height_bound=u), (0,) * k, sswt)


def sub_sswcn_brute(k: int, u: int, a: Point, n: int) -> WeightPolynomial:
    """Sum of weights over height-bounded sub-ballot paths from *a* to (n,...,n)."""
    a = tuple(a)
    if not is_ballot_point(a) or ss_height_point(a) > u:
        raise InvalidStateError(f"{a} is not a ballot point with height <= {u}")
    _check_cap(k, n)
    return _brute_sum(k, enumerate_sub_paths(k, a, (n,) * k, height_bound=u), a, sswt)


def legacy_wcn_brute(k: int, n: int) -> WeightPolynomial:
    """Sum of legacy weights wt_b over all balanced ballot paths; kept for
    distinctness checks against the semisymmetric generalization."""
    _check_cap(k, n)
    return _brute_sum(k, enumerate_paths(k, n), (0,) * k, legacy_wt)


# ---------------------------------------------------------------------------
# Lattice DP over the ballot points of the box.


def _bump(pairs: tuple[tuple[int, int], ...], index: int) -> tuple[tuple[int, int], ...]:
    """The sorted (index, exponent) tuple *pairs* with the exponent of
    *index* raised by one."""
    for pos, (i, e) in enumerate(pairs):
        if i == index:
            return pairs[:pos] + ((i, e + 1),) + pairs[pos + 1 :]
        if i > index:
            return pairs[:pos] + ((index, 1),) + pairs[pos:]
    return pairs + ((index, 1),)


def _weight_step(k: int):
    """The lattice-DP step of the symbolic weight: an up-step multiplies each
    monomial at its start by B(height of the start), any other step by
    C(height of the end); monomials are (b, c) sorted exponent tuples."""
    up = k // 2

    def step(vector, d, g, g2):
        if d <= up:
            return (((_bump(b, g), c), coeff) for (b, c), coeff in vector.items())
        return (((b, _bump(c, g2)), coeff) for (b, c), coeff in vector.items())

    return step


def _polynomial(sums: dict) -> WeightPolynomial:
    """Lattice-DP sums {(b, c) exponent tuples: coefficient} as a polynomial."""
    return WeightPolynomial({WeightMonomial(b, c): v for (b, c), v in sums.items()})


def sswcn_lattice(k: int, n: int, u: Optional[int] = None) -> WeightPolynomial:
    """Sum of semisymmetric weights over all balanced ballot paths of length
    k*n, restricted to height <= u when *u* is given, as a symbolic
    polynomial, by the layered DP with `_weight_step`.

    Without *u*, more than `DEFAULT_PATH_CAP` paths raises `TooLargeError`.
    Each path gives one monomial, so the path count bounds the terms; the
    measured ratio is 0.2-0.7 for k >= 4 ((4, 5): 333,851 terms from
    1,662,804 paths, 12 s and 272 MB) and far lower for k = 2 ((2, 20):
    524,288 terms from 6.6e9 paths, but 112 s and 1.1 GB).  The largest
    sizes under the cap finish within about 12 s.  Bounded calls are not
    refused: `verify_min_u_formulas` asks for the two smallest bounds,
    where the sum has a single term."""
    if u is None:
        _check_cap(k, n)
    return _polynomial(lattice_sum(k, n, ((), ()), _weight_step(k), height_bound=u))


def sswcn_lattice_value(
    k: int, n: int, w: WeightAssignment = ALL_ONES, modulus: Optional[int] = None
) -> int:
    """`sswcn_lattice` evaluated at the weights *w*, reduced mod *modulus*
    after every step when given."""
    up = k // 2

    def step(vector, d, g, g2):
        value = vector[None] * (w.b(g) if d <= up else w.c(g2))
        return ((None, value if modulus is None else value % modulus),)

    value = lattice_sum(k, n, None, step)[None]
    return value if modulus is None else value % modulus


# ---------------------------------------------------------------------------
# Transfer-matrix DP over normalized boundary states.


def _normalize(p: Point) -> Point:
    """Subtract x_k * (1,...,1); height-preserving since the g coefficients
    sum to zero."""
    shift = p[-1]
    return tuple(c - shift for c in p)


def _blocks(k: int, u: int, a: Point) -> dict[Point, dict]:
    """The k-step sub-ballot blocks from *a* with height <= u, summed by the
    layered DP: {normalized endpoint: {(b, c) exponent tuples: coefficient}}.
    Distinct endpoints of k steps from *a* never normalize alike."""
    # k steps never reach the corner a + (k, ..., k), so the box never binds.
    walk = lattice_walk(k, a, tuple(c + k for c in a), k, ((), ()), _weight_step(k), u)
    return {_normalize(y): vector for y, vector in walk.items()}


class StateSpace(_Frozen):
    """Normalized boundary states for the bound u: ballot points with last
    coordinate 0 reachable from the origin by k-step blocks."""

    __slots__ = ("k", "u", "states")

    def __init__(self, k: int, u: int, states: tuple[Point, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)


@lru_cache(maxsize=None)
def build_state_space(k: int, u: int) -> StateSpace:
    """The states of `_transfer_matrix(k, u)`, in its BFS order."""
    return _transfer_matrix(k, u).space


class TransferMatrix(NamedTuple):
    """Symbolic k-step transition matrix over the state space.

    Entry (i, j) sums the semisymmetric weight over the height-bounded
    k-step blocks from state i whose endpoint normalizes to state j.  All
    zero entries are one shared empty polynomial, so entries are read,
    never changed in place."""

    space: StateSpace
    entries: tuple[tuple[WeightPolynomial, ...], ...]

    def evaluated(
        self, w: WeightAssignment, modulus: Optional[int] = None
    ) -> list[list[tuple[int, int]]]:
        """The matrix evaluated at *w* (mod *modulus* when given), each row
        as its nonzero (column, value) pairs; zero polynomials are skipped
        without evaluation."""
        return [
            [
                (j, value)
                for j, poly in enumerate(row)
                if poly.terms and (value := poly.evaluate(w, modulus))
            ]
            for row in self.entries
        ]


_ZERO = WeightPolynomial()


@lru_cache(maxsize=None)
def _transfer_matrix(k: int, u: int) -> TransferMatrix:
    """The u-bounded transfer matrix, by one BFS from the all-zero state
    under normalized k-step blocks.  Each state's blocks are walked once,
    and their sums become its row as they are found.  States are numbered
    in discovery order: all-zero first, then each level's new states in
    sorted order."""
    if u < 0:
        raise ValueError(f"height bound must be >= 0, got {u}")
    states = [(0,) * k]
    rows: list[dict[Point, WeightPolynomial]] = []
    while len(rows) < len(states):
        level = states[len(rows) :]
        for state in level:
            blocks = _blocks(k, u, state)
            rows.append({w: _polynomial(sums) for w, sums in blocks.items()})
        found = {w for row in rows[-len(level) :] for w in row}
        new = sorted(found.difference(states))
        for s in new:
            if s[-1] != 0 or ss_height_point(s) > u:
                raise FormulaViolationError(
                    f"state {s} is not normalized or lies above the bound u={u}",
                    expected=f"last coordinate 0 and height <= {u}",
                    actual=s,
                    witness=(k, u),
                )
        states.extend(new)
    entries = tuple(tuple(row.get(s, _ZERO) for s in states) for row in rows)
    return TransferMatrix(StateSpace(k, u, tuple(states)), entries)


def _apply(
    rows: list[list[tuple[int, int]]], vector: tuple[int, ...], modulus: Optional[int]
) -> tuple[int, ...]:
    """The matrix with sparse *rows* times *vector*, reduced mod *modulus*
    when given."""
    sums = [sum([v * vector[j] for j, v in row]) for row in rows]
    return tuple(sums if modulus is None else [x % modulus for x in sums])


def _orbit(
    k: int, u: int, w: WeightAssignment, modulus: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """The boundary vectors gamma_0 = e_0, gamma_n = T gamma_{n-1}, where T
    is the u-bounded transfer matrix evaluated at *w*; every vector is
    reduced mod *modulus* when one is given.  Component 0 of gamma_n is the
    u-bounded weighted count of length k*n.  T is evaluated once."""
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    rows = _transfer_matrix(k, u).evaluated(w, modulus)
    gamma = (1 if modulus is None else 1 % modulus,) + (0,) * (len(rows) - 1)
    while True:
        yield gamma
        gamma = _apply(rows, gamma, modulus)


def bounded_sswcn_dp(
    k: int,
    u: int,
    n: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> int:
    """The u-bounded weighted count of length k*n (mod *modulus* when
    given): component 0 of gamma_n in `_orbit`."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return next(islice(_orbit(k, u, w, modulus), n, None))[0]


def bounded_sequence(
    k: int,
    u: int,
    count: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> list[int]:
    """The u-bounded weighted counts of lengths 0, k, ..., k*(count-1)
    (mod *modulus* when given), from one pass over `_orbit`."""
    return [gamma[0] for gamma in islice(_orbit(k, u, w, modulus), count)]


def max_path_height(k: int, n: int) -> int:
    """Largest semisymmetric height attainable by a length-k*n balanced path."""
    return (k // 2) * ((k + 1) // 2) * n


def min_path_height(k: int) -> int:
    """Smallest semisymmetric height of any nonempty balanced path."""
    return (k // 2) * ((k + 1) // 2)
