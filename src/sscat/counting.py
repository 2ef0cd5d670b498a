"""Exact counting: closed formula, lattice DP, transfer-matrix DP, and
brute force.

`catalan_number` is the hook-length formula.  The `sswcn_lattice*`
functions run the layered DP over the ballot points of the box, with the
symbolic step of `weights` or a numeric one.
`bounded_sswcn_dp` and `bounded_sequence` read the counts a_n = e_0^T
T^n e_0 of the S x S boundary-state transfer matrix T, whose entries the
same DP sums over the k-step blocks from each state, found by one BFS,
which charges its walk as it goes.
A bound at or above the greatest height of a path of length k*n cannot
bind, and `bounded_sswcn_dp` then sums the unbounded lattice DP where its
charge admits it.  Counting routes walk the blocks with the numeric step
at their weights, so none builds a polynomial; the symbolic entries, the
same BFS with `weight_step`, are a test oracle.  Runs of fewer than
`RECURRENCE_FROM` * S terms iterate the orbit gamma_n = T gamma_{n-1},
one product per nonzero entry of T per step.  Longer runs take the
orbit's first 2S exact terms and their minimal recurrence, of order
d <= S, proved over the integers (`linrec`).  A whole sequence then costs
one d-term sum per further term; a single count is read from
x^(n // 2) modulo the recurrence's characteristic polynomial, by
square-and-multiply, in about log2(n) squarings.  A recurrence over the
integers holds mod every m, so a modulus never chooses between the orbit
and the recurrence: it reduces the orbit's vectors, or what the
recurrence reads.  Every run is charged up front (`errors.charge`); a
single residue whose squarings, of long products mod a long m, are
estimated above the d-term sums runs those.
The `*_brute` functions, the test oracle, share one loop, `_brute_sum`,
that sums weights over enumerated paths.  Wherever these routes overlap
they agree exactly.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import (
    COST,
    FormulaViolationError,
    InvalidDimensionError,
    InvalidStateError,
    TooLargeError,
    charge,
)
from .paths import (
    BallotPath,
    Point,
    Step,
    StepKind,
    _Frozen,
    charge_box,
    enumerate_paths,
    enumerate_sub_paths,
    is_ballot_point,
    lattice_diagonal,
    lattice_layers,
    ss_height_point,
    walk_cost,
)
from .weights import (
    ALL_ONES,
    TagFormat,
    WeightAssignment,
    WeightPolynomial,
    legacy_wt,
    sswt,
    tag_polynomial,
    weight_step,
)

def catalan_number(k: int, n: int) -> int:
    """The n-th k-dimensional Catalan number: the standard Young tableaux of
    the k x n rectangle, (kn)! over the product of its hook lengths.  The
    n x k rectangle has as many, so the product runs over the shorter
    side: with r rows of c cells, r <= c, row i (0 <= i < r) has hooks
    i + 1, ..., i + c, whose product is (c+i)!/i!.

    Accepts k >= 1 (the degenerate k=1 column is identically 1).  Charged
    before any factorial is formed for the division, which costs about the
    square of the bits of (kn)!, estimated by Stirling's series
    (`math.lgamma`); the hook product, over the shorter side, has fewer."""
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    if k == 1:
        return 1
    # past 2^60 every estimate is over the limit; the cut keeps it a float
    bits = math.lgamma(min(k * n, 2**60) + 1) / math.log(2)
    charge(f"the Catalan number (k={k}, n={n})", bits * bits * COST["factorial bit^2"])
    rows, cols = min(k, n), max(k, n)
    hooks = math.prod(math.perm(cols + i, cols) for i in range(rows))
    quotient, remainder = divmod(math.factorial(k * n), hooks)
    if remainder:
        raise FormulaViolationError(
            f"the hook-length formula for (k={k}, n={n}) is not an integer",
            expected=0,
            actual=remainder,
            witness=(k, n),
        )
    return quotient


def _path_count(what: str, k: int, n: int, per_path: float) -> int:
    """The paths of (k, n), charged as *what* at *per_path* seconds each.
    The count never decreases in n, since appending the steps 1..k keeps a
    path balanced and ballot, so the counts of m = 0..n are charged in
    turn: the first one past the limit (m <= 16 for every k >= 2 at the
    unit costs here) stops the scan without the (kn)!-sized count."""
    paths = 1
    for m in range(n + 1):
        paths = catalan_number(k, m)
        charge(what, min(paths, 2**200) * per_path)
    return paths


def _check_cap(k: int, n: int) -> None:
    """Charge the brute-force oracles at (k, n): each path is walked twice
    (enumerated, then rebuilt as a `BallotPath` and weighed), as two pairs
    of a walk per step."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    _path_count(f"brute force over the paths of (k={k}, n={n})", k, n, 2 * k * n * COST["edge"])


def _check_enumeration(k: int, n: int, u: Optional[int] = None) -> None:
    """Charge `sscat enumerate k n` (`--bound u`) before the first point
    is built: the steps it prints, paths * kn, plus the coordinates of the
    points its walk holds, k for each point on a printed path, at most
    C(n + k, k) of them, in seconds and, at 8 bytes a coordinate and 56 a
    point, in bytes.  One path's points are charged first.  The paths are
    the Catalan number or, when that passes the limit under a bound below
    the largest height, the count of the paths of height <= u."""
    what = f"enumerating the paths of (k={k}, n={n})" + ("" if u is None else f" of height <= {u}")

    def check(paths: int) -> None:
        steps = paths * k * n
        # one path's points are distinct points of the box
        held = steps + 1 if paths == 1 else min(steps + 1, math.comb(n + k, k))
        charge(what, min(steps + held * k, 2**200) * COST["printed step"], held * (8 * k + 56))

    check(1)
    try:
        check(_path_count(what, k, n, k * n * COST["printed step"]))
    except TooLargeError:
        if u is None or u >= max_path_height(k, n):
            raise
        check(bounded_sswcn_dp(k, u, n))


def _brute_sum(
    k: int, walks: Iterable[tuple[int, ...]], origin: Point, weight
) -> WeightPolynomial:
    """The loop of the brute-force oracles: rebuild each enumerated walk as
    a `BallotPath` from *origin*, whose constructor checks it again, and
    sum its *weight*."""
    return WeightPolynomial(Counter(weight(BallotPath(k, steps, origin)) for steps in walks))


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


def sswcn_lattice(k: int, n: int, u: Optional[int] = None) -> WeightPolynomial:
    """Sum of semisymmetric weights over all balanced ballot paths of length
    k*n, restricted to height <= u when *u* is given, as a symbolic
    polynomial, by the layered DP with `weight_step` on packed tags, which
    the polynomial keeps.

    Charged before the walk over the box, each tag of 2H slots of w bytes
    (H the largest height plus 1) passed over three times: made, hashed
    and, to be printed, read as bytes.  Each path gives one monomial, so
    the path count P bounds the terms, held at about 100 bytes plus the
    tag's, each printed a slot at a time; the tags moved summed to at most
    (k/2 + 1) P in every case measured, (4, 5), (5, 4), (6, 3), (7, 3) and
    (10, 2) among them, and are charged as k P.  The terms are far fewer
    than P for k = 2 ((2, 20): 524,288 terms from 6.6e9 paths).  Bounded
    calls are charged one tag per pair instead: `verify_min_u_formulas`
    asks for the two smallest bounds, where the sum has a single term."""
    what = f"the symbolic lattice walk at (k={k}, n={n})"
    top = max_path_height(k, n) if u is None else min(u, max_path_height(k, n))
    fmt = TagFormat.for_walk(max(top, -1) + 1, k * n)
    tag_bits = 16 * fmt.heights * fmt.width
    edges = charge_box(what, k, n, bits=3 * tag_bits)
    if u is None:
        per_term = k * (COST["tag"] + 3 * tag_bits * COST["bit"]) + 2 * fmt.heights * COST["tag"]
        paths = _path_count(what, k, n, per_term)
        seconds = walk_cost(k, edges, 0)[0] + min(paths, 2**200) * per_term
        charge(what, seconds, paths * (100 + tag_bits // 8))
    return tag_polynomial(lattice_diagonal(k, n, {0: 1}, weight_step(fmt), u)[n], fmt)


def sswcn_lattice_value(
    k: int, n: int, w: WeightAssignment = ALL_ONES, modulus: Optional[int] = None
) -> int:
    """`sswcn_lattice` evaluated at the weights *w*, reduced mod *modulus*
    after every step when given, charged by `_check_lattice_work`."""
    _check_lattice_work(k, n, w, modulus)
    value = lattice_diagonal(k, n, {None: 1}, _value_step(w, modulus))[n][None]
    return value if modulus is None else value % modulus


def _value_step(w: WeightAssignment, modulus: Optional[int]) -> Step:
    """The numeric `weight_step` at *w* on one count keyed None, reduced
    mod *modulus* when given: an up-step multiplies it by b(g), any other
    step by c(g2).  Seed the walk with {None: 1}."""

    def step(vector, kind, g, g2):
        value = vector[None] * (w.b(g) if kind is StepKind.UP else w.c(g2))
        return ((None, value if modulus is None else value % modulus),)

    return step


# ---------------------------------------------------------------------------
# Transfer-matrix DP over normalized boundary states.


def _blocks(k: int, u: int, a: Point, seed: dict, step: Step) -> dict[Point, dict]:
    """The k-step sub-ballot blocks from *a* with height <= u, summed by
    the layered DP from *seed* with *step*: {normalized endpoint: vector}.
    Every endpoint reached is a key, whatever *step* yields.  Normalizing
    subtracts x_k * (1, ..., 1), which keeps the height since the g
    coefficients sum to zero; distinct endpoints never normalize alike."""
    # k steps never reach the corner a + (k, ..., k), so the box never binds.
    layers = lattice_layers(k, a, tuple(c + k for c in a), seed, step, u)
    walk = next(islice(layers, k, None))
    return {tuple(c - y[-1] for c in y): vector for y, (_, vector) in walk.items()}


def _walk_states(k: int, u: int, seed: dict, step: Step) -> tuple[list[Point], list[dict]]:
    """One BFS from the all-zero state under normalized k-step blocks: the
    states in discovery order, all-zero first, then each level's new
    states in sorted order, and each state's `_blocks`, walked once.  The
    keys of the blocks, and so the order, never depend on *step*.  Before
    each level the walk is charged for every state found so far, at the
    mean pairs of the blocks walked, k per endpoint (1-1.3 k measured from
    k = 3 to 12): the first level, one state, only for its k-long tables."""
    if u < 0:
        raise ValueError(f"height bound must be >= 0, got {u}")
    what = f"the transfer-matrix walk at (k={k}, u={u})"
    charge(what, *walk_cost(k, 0, 0))  # before the all-zero state is built
    states = [(0,) * k]
    known = set(states)
    rows: list[dict[Point, dict]] = []
    edges = 0
    while len(rows) < len(states):
        estimate = edges * len(states) // max(len(rows), 1)
        charge(f"{what}, past {len(states)} states,", *walk_cost(k, estimate, estimate))
        level = states[len(rows) :]
        for state in level:
            rows.append(_blocks(k, u, state, seed, step))
            edges += k * len(rows[-1])
        new = sorted({s for row in rows[-len(level) :] for s in row}.difference(known))
        for s in new:
            if s[-1] != 0 or ss_height_point(s) > u:
                raise FormulaViolationError(
                    f"state {s} is not normalized or lies above the bound u={u}",
                    expected=f"last coordinate 0 and height <= {u}",
                    actual=s,
                    witness=(k, u),
                )
        states.extend(new)
        known.update(new)
    return states, rows


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
    """The states of `_transfer_matrix(k, u)`, in its BFS order, walked
    with a step that carries nothing."""
    return StateSpace(k, u, tuple(_walk_states(k, u, {}, lambda *_: ())[0]))


class TransferMatrix(NamedTuple):
    """The u-bounded k-step transition matrix over the state space.

    Entry (i, j) sums the semisymmetric weight over the height-bounded
    k-step blocks from state i whose endpoint normalizes to state j.  Each
    reading walks the blocks with the step it needs: `evaluated` with the
    numeric step at given weights, the only reading of any counting route,
    and `entries` with `weight_step`, a test oracle."""

    k: int
    u: int

    @property
    def space(self) -> StateSpace:
        return build_state_space(self.k, self.u)

    @property
    def entries(self) -> tuple[tuple[WeightPolynomial, ...], ...]:
        """The symbolic entries, polynomials that keep the blocks' packed
        tags.  All zero entries are one shared empty polynomial, so
        entries are read, never changed in place."""
        fmt = TagFormat.for_walk(self.u + 1, self.k)
        states, rows = _walk_states(self.k, self.u, {0: 1}, weight_step(fmt))
        return tuple(
            tuple(tag_polynomial(row[s], fmt) if s in row else _ZERO for s in states)
            for row in rows
        )

    def evaluated(
        self, w: WeightAssignment, modulus: Optional[int] = None
    ) -> list[list[tuple[int, int]]]:
        """The matrix at the weights *w* (mod *modulus* when given), each
        row as its nonzero (column, value) pairs by column, from the blocks
        walked with the step of `sswcn_lattice_value`."""
        states, rows = _walk_states(self.k, self.u, {None: 1}, _value_step(w, modulus))
        column = {s: j for j, s in enumerate(states)}
        return [
            sorted(
                (column[s], value)
                for s, vector in row.items()
                if (value := vector[None] if modulus is None else vector[None] % modulus)
            )
            for row in rows
        ]


_ZERO = WeightPolynomial()


@lru_cache(maxsize=None)
def _transfer_matrix(k: int, u: int) -> TransferMatrix:
    """The u-bounded transfer matrix; it holds only (k, u)."""
    return TransferMatrix(k, u)


def _apply(
    rows: list[list[tuple[int, int]]], vector: tuple[int, ...], modulus: Optional[int]
) -> tuple[int, ...]:
    """The matrix with sparse *rows* times *vector*, reduced mod *modulus*
    when given."""
    sums = [sum([v * vector[j] for j, v in row]) for row in rows]
    return tuple(sums if modulus is None else [x % modulus for x in sums])


def _orbit(
    rows: list[list[tuple[int, int]]], modulus: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """The boundary vectors gamma_0 = e_0, gamma_n = T gamma_{n-1}, where T
    is the transfer matrix with the evaluated sparse *rows*; every vector
    is reduced mod *modulus* when one is given.  Component 0 of gamma_n is
    the u-bounded weighted count of length k*n."""
    gamma = (1 if modulus is None else 1 % modulus,) + (0,) * (len(rows) - 1)
    while True:
        yield gamma
        gamma = _apply(rows, gamma, modulus)


# Runs of at least RECURRENCE_FROM * S terms, S the number of states, take
# the minimal recurrence: below that, finding it costs more than the
# orbit steps it saves.
RECURRENCE_FROM = 4


def _check_lattice_work(k: int, n: int, w: WeightAssignment, modulus: Optional[int]) -> None:
    """Charge the numeric lattice DP at (k, n) before any walk: one tag per
    point, whose product by a weight costs the value's bits times the
    weight's 30-bit digits.  A value sums at most k^(kn) walks, each a
    product of kn weights; a modulus reduces every product of a weight and
    a residue."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    weight_bits = max(map(abs, (*w.b_prefix, w.b_fill, *w.c_prefix, w.c_fill))).bit_length()
    bits = k * n * (weight_bits + k.bit_length())
    if modulus is not None:
        bits = min(bits, modulus.bit_length() + weight_bits)
    what = f"the numeric lattice walk at (k={k}, n={n})"
    charge_box(what, k, n, bits=bits * (max(weight_bits, 30) // 30))


# A bounded run is charged before any step.  A run of every count up to n
# is charged the terms summed per step (the recurrence's order, at most S,
# or the orbit's nonzeros) times the bits of every count up to n, bounded
# up front as bits(a_i) <= i * bits(R) + 1, R the largest absolute row sum
# of the evaluated matrix, or by bits(m) for residues mod m, and at least
# one small product per term; such runs took 90-230 ps per term-bit, and a
# d-term loop mod 1000003 47-115 ns per product, on a 2-core VM with
# Python 3.11.  A single exact count on the recurrence route is charged
# its squarings, which the last one outweighs: its operand packs d <= S
# slots of bits(a_n) bits, N bits in all, and it took 23-44 ps per N^1.5
# for S = 5 to 46, so the jump is charged N^1.5 / 4 term-bits.  A single
# residue on the recurrence route is charged, for each bit of n, 2 S^2
# products mod m (a squaring and its reduction, d <= S), each one small
# product plus bits(m)^2 / 64 term-bits for the digits of a long product
# and its division: measured at 10-380 ps per term-bit for S = 10, 46 and
# 86 and m of 20 to 13,288 bits, 1.2-1.7 times the d-term loop at most.
# Where the loop's charge is less than the jump's (a long m and a short
# run, or large weights and n near 4S), the loop runs, so a single count
# never costs more than the loop did.


def _plan(
    k: int, u: int, w: WeightAssignment, modulus: Optional[int], stop: int, single: bool
) -> tuple[list[list[tuple[int, int]]], str]:
    """The transfer matrix at the weights *w*, evaluated once, exactly, and
    the route of the counts a_0, ..., a_{stop-1} (only the last when
    *single*): "orbit", "loop" (`linrec.iterate`) or "jump" (`linrec.term`).

    A run of at least RECURRENCE_FROM * S terms takes the recurrence when
    the primes can hold its coefficients: its roots are eigenvalues of T,
    at most R in absolute value, so no coefficient exceeds (1 + R)^S.  A
    single count on it jumps, unless its jump is charged more than the
    loop, which then runs.  The run is charged before any step."""
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    rows = _transfer_matrix(k, u).evaluated(w)
    size = len(rows)
    growth = max(sum(abs(v) for _, v in row) for row in rows)
    recurrence = stop >= RECURRENCE_FROM * size
    if recurrence:
        from .linrec import CAPACITY

        recurrence = 2 * (1 + growth) ** size < CAPACITY
    width = size if recurrence else sum(map(len, rows))
    bits = growth.bit_length() * stop * (stop - 1) // 2 + stop
    if modulus is not None:
        bits = min(bits, modulus.bit_length() * stop)
    # past 2^200 every estimate is over the limit; the cut keeps it a float
    term_bit, product = COST["term bit"], COST["product"]
    seconds = width * max(min(bits, 2**200) * term_bit, min(stop, 2**200) * product)
    route = "loop" if recurrence else "orbit"
    if recurrence and single:
        if modulus is None:
            # the last squaring's operand: S slots of bits(a_n) each
            operand = min(size * growth.bit_length() * stop, 2**200)
            jump = operand * math.isqrt(operand) // 4 * term_bit
        else:
            squarings = 2 * size * size * (stop - 1).bit_length()
            jump = squarings * (product + modulus.bit_length() ** 2 // 64 * term_bit)
        route, seconds = ("jump", jump) if jump < seconds else ("loop", seconds)
    residues = "" if modulus is None else f" mod {_shown(modulus)}"
    charge(f"the bounded run at (k={k}, u={u}) up to n={_shown(stop - 1)}{residues}", seconds)
    return rows, route


def _shown(x: int) -> str:
    """*x* in decimal below 10^600, which any digit limit of Python lets
    print, else as the power of two it reaches."""
    return str(x) if x.bit_length() < 1993 else f"~2^{x.bit_length() - 1}"


def _recurrence_counts(
    rows: list[list[tuple[int, int]]], modulus: Optional[int], stop: int, jump: bool
) -> Iterable[int]:
    """The counts a_0, ..., a_{stop-1} (mod *modulus* when given) of the
    matrix with the evaluated sparse *rows*, from the minimal recurrence,
    of order d <= S, that the orbit's first 2S exact counts prove over the
    integers: every count by `linrec.iterate`, or only the last by
    `linrec.term` when *jump*.  A recurrence over the integers holds mod
    every m, so a modulus only reduces what the recurrence reads."""
    from . import linrec

    size = len(rows)
    exact = [gamma[0] for gamma in islice(_orbit(rows, None), 2 * size)]
    q = linrec.minimal_recurrence(exact, size)
    if jump:
        return [linrec.term(exact, q, stop - 1, modulus)]
    return linrec.iterate(exact, q, stop, modulus)


def bounded_sswcn_dp(
    k: int,
    u: int,
    n: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> int:
    """The u-bounded weighted count of length k*n (mod *modulus* when
    given).  Where no path of that length is higher than u, the bound
    cannot bind: the unbounded `sswcn_lattice_value`, when
    its charge admits it.  Otherwise component 0 of gamma_n
    on a short run, or the last of `_recurrence_counts`, on the route
    `_plan` picks."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if u >= max_path_height(k, n):
        try:
            return sswcn_lattice_value(k, n, w, modulus)
        except TooLargeError:
            pass  # a small matrix, as at k = 2, may still fit its budget
    rows, route = _plan(k, u, w, modulus, n + 1, single=True)
    if route == "orbit":
        return next(islice(_orbit(rows, modulus), n, None))[0]
    return deque(_recurrence_counts(rows, modulus, n + 1, route == "jump"), maxlen=1)[0]


def bounded_sequence(
    k: int,
    u: int,
    count: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> list[int]:
    """The u-bounded weighted counts of lengths 0, k, ..., k*(count-1)
    (mod *modulus* when given): component 0 of the orbit on a short run,
    else `_recurrence_counts`."""
    rows, route = _plan(k, u, w, modulus, count, single=False)
    if route == "orbit":
        return [gamma[0] for gamma in islice(_orbit(rows, modulus), count)]
    return list(_recurrence_counts(rows, modulus, count, jump=False))


def max_path_height(k: int, n: int) -> int:
    """Largest semisymmetric height attainable by a length-k*n balanced path."""
    return (k // 2) * ((k + 1) // 2) * n


def min_path_height(k: int) -> int:
    """Smallest semisymmetric height of any nonempty balanced path."""
    return (k // 2) * ((k + 1) // 2)
