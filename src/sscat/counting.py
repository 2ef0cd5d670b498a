"""Exact counting: closed formula, lattice DP, transfer-matrix DP, and
brute force.

`catalan_number` is the hook-length formula.  The `sswcn_lattice*`
functions run the layered DP over the ballot points of the box, with the
symbolic step of `weights` or a numeric one.
`bounded_sswcn_dp` and `bounded_sequence` read the counts a_n = e_0^T
T^n e_0 of the S x S boundary-state transfer matrix T, whose entries the
same DP sums over the k-step blocks from each state, found by one BFS.
Counting routes walk the blocks with the numeric step at their weights,
so none builds a polynomial; the symbolic entries, the same BFS with
`weight_step`, are a test oracle.  Runs of fewer than
`RECURRENCE_FROM` * S terms iterate the orbit gamma_n = T gamma_{n-1},
one product per nonzero entry of T per step.  Longer runs take the
orbit's first 2S exact terms and their minimal recurrence, of order
d <= S, proved over the integers (`linrec`).  A whole sequence then costs
one d-term sum per further term; a single count is read from
x^(n // 2) modulo the recurrence's characteristic polynomial, by
square-and-multiply, in about log2(n) squarings.  A recurrence over the
integers holds mod every m, so a modulus never chooses between the orbit
and the recurrence: it reduces the orbit's vectors, or what the
recurrence reads.  Every run estimates its work up front and refuses it
past `BOUNDED_WORK_BUDGET`; a single residue whose squarings, of long
products mod a long m, are estimated above the d-term sums runs those.
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
    FormulaViolationError,
    InvalidDimensionError,
    InvalidStateError,
    TooLargeError,
)
from .paths import (
    BallotPath,
    Point,
    Step,
    StepKind,
    _Frozen,
    enumerate_paths,
    enumerate_sub_paths,
    is_ballot_point,
    lattice_sum,
    lattice_walk,
    ss_height_point,
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

DEFAULT_PATH_CAP = 10**7

# Budget of `catalan_number`: the bits of (kn)!, estimated by Stirling's
# series (`math.lgamma`) before any factorial is formed; the hook product,
# taken over the shorter side, has fewer.  The division costs about the
# square of the bits: `count 3 40000` (1.9e6 bits) takes about 1.4 s on a
# 2-core VM with Python 3.11.  The budget admits n up to about 44,000 at
# k = 3.
CATALAN_BITS_BUDGET = 2**21


def catalan_number(k: int, n: int) -> int:
    """The n-th k-dimensional Catalan number: the standard Young tableaux of
    the k x n rectangle, (kn)! over the product of its hook lengths.  The
    n x k rectangle has as many, so the product runs over the shorter
    side: with r rows of c cells, r <= c, row i (0 <= i < r) has hooks
    i + 1, ..., i + c, whose product is (c+i)!/i!.

    Accepts k >= 1 (the degenerate k=1 column is identically 1).  Raises
    `TooLargeError` when (kn)! has more than `CATALAN_BITS_BUDGET` bits."""
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    if k == 1:
        return 1
    # log2(m!) >= m for m >= 4, so the first test refuses every kn that
    # math.lgamma could not take as a float.
    if (
        k * n > CATALAN_BITS_BUDGET
        or math.lgamma(k * n + 1) / math.log(2) > CATALAN_BITS_BUDGET
    ):
        raise TooLargeError(
            f"the Catalan number (k={k}, n={n}) needs more than "
            f"CATALAN_BITS_BUDGET = {CATALAN_BITS_BUDGET} bits for (kn)!"
        )
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


def _paths_over(k: int, n: int, cap: int) -> bool:
    """Whether (k, n) has more than *cap* paths.  The count never
    decreases in n, since appending the steps 1..k keeps a path balanced
    and ballot, so the scan stops at the first m <= n over the cap (m <= 16
    for every k >= 2 at the caps here) without the (kn)!-sized count."""
    return any(catalan_number(k, m) > cap for m in range(n + 1))


def _check_cap(k: int, n: int) -> None:
    """Raise `TooLargeError` when (k, n) has more than `DEFAULT_PATH_CAP`
    paths."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    if _paths_over(k, n, DEFAULT_PATH_CAP):
        raise TooLargeError(
            f"(k={k}, n={n}) has more paths than the cap of {DEFAULT_PATH_CAP}"
        )


# Budget of `sscat enumerate`, counted before the first write: the steps
# it prints, paths * kn, plus the coordinates of the points its DFS holds,
# k for each point on a printed path, at most C(n + k, k) of them.  On a
# 2-core VM with Python 3.11 a unit took 0.15-0.17 us, so the largest
# admitted commands, `enumerate 4 5` and `enumerate 5 4` (1.66e6 paths of
# 20 steps), took 5.1-5.7 s, and `enumerate 5791 1` (one path whose 5,792
# points hold 3.4e7 coordinates) about 5.4 s and 306 MB.  `enumerate 2 14`
# (7.5e7 steps) is refused; so is `enumerate 12000 1`, whose points would
# fill more than 1 GB.
ENUMERATE_PATH_BUDGET = 2**25


def _enumeration_over(k: int, n: int, paths: int) -> bool:
    """Whether *paths* paths of length kn pass `ENUMERATE_PATH_BUDGET`."""
    steps = paths * k * n
    budget = ENUMERATE_PATH_BUDGET
    return steps > budget or steps + min(steps + 1, math.comb(n + k, k)) * k > budget


def _check_enumeration(k: int, n: int, u: Optional[int] = None) -> None:
    """Raise `TooLargeError` when `enumerate_paths(k, n, u)` passes
    `ENUMERATE_PATH_BUDGET`, charged on the Catalan number of paths or,
    when that passes it under a bound below the largest height, on the
    count of the paths of height <= u."""
    over = _paths_over(k, n, ENUMERATE_PATH_BUDGET) or _enumeration_over(
        k, n, catalan_number(k, n)
    )
    if over and u is not None and u < max_path_height(k, n):
        over = _enumeration_over(k, n, bounded_sswcn_dp(k, u, n))
    if over:
        bound = "" if u is None else f" of height <= {u}"
        raise TooLargeError(
            f"(k={k}, n={n}) needs more printed steps and held coordinates for "
            f"its paths{bound} than ENUMERATE_PATH_BUDGET = {ENUMERATE_PATH_BUDGET}"
        )


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

    Without *u*, more than `DEFAULT_PATH_CAP` paths raises `TooLargeError`.
    Each path gives one monomial, so the path count bounds the terms; the
    measured ratio is 0.2-0.7 for k >= 4 ((4, 5): 333,851 terms from
    1,662,804 paths) and far lower for k = 2 ((2, 20): 524,288 terms from
    6.6e9 paths).  On a 2-core VM with Python 3.11, `sswcn 4 5 --symbolic`
    takes about 5 s and 140 MB.  Bounded calls are not refused:
    `verify_min_u_formulas` asks for the two smallest bounds, where the sum
    has a single term."""
    if u is None:
        _check_cap(k, n)
    top = max_path_height(k, n) if u is None else min(u, max_path_height(k, n))
    fmt = TagFormat.for_walk(max(top, -1) + 1, k * n)
    return tag_polynomial(lattice_sum(k, n, {0: 1}, weight_step(fmt), height_bound=u), fmt)


def sswcn_lattice_value(
    k: int, n: int, w: WeightAssignment = ALL_ONES, modulus: Optional[int] = None
) -> int:
    """`sswcn_lattice` evaluated at the weights *w*, reduced mod *modulus*
    after every step when given, refused past `LATTICE_WORK_BUDGET`."""
    _check_lattice_work(k, n, w, modulus)
    value = lattice_sum(k, n, {None: 1}, _value_step(w, modulus))[None]
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
    walk = lattice_walk(k, a, tuple(c + k for c in a), k, seed, step, u)
    return {tuple(c - y[-1] for c in y): vector for y, vector in walk.items()}


def _walk_states(k: int, u: int, seed: dict, step: Step) -> tuple[list[Point], list[dict]]:
    """One BFS from the all-zero state under normalized k-step blocks: the
    states in discovery order, all-zero first, then each level's new
    states in sorted order, and each state's `_blocks`, walked once.  The
    keys of the blocks, and so the order, never depend on *step*."""
    if u < 0:
        raise ValueError(f"height bound must be >= 0, got {u}")
    states = [(0,) * k]
    rows: list[dict[Point, dict]] = []
    while len(rows) < len(states):
        level = states[len(rows) :]
        rows.extend(_blocks(k, u, state, seed, step) for state in level)
        found = {s for row in rows[-len(level) :] for s in row}
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

# Budget of `sswcn_lattice_value`: the C(n + k, k) ballot points of the
# box, k successors each, times what a step costs in big-integer bits: its
# product of a value by a weight, the value's bits times the weight's
# 30-bit digits, plus LATTICE_STEP_BITS for its dict and generator work.
# On a 2-core VM with Python 3.11 a step at all-ones weights takes 1-2.4
# us, and the largest admitted runs, such as `sswcn 3 123` (1.7e10), take
# up to about 2 s; `sswcn 3 3000` estimates 5.9e14.
LATTICE_STEP_BITS = 2**14
LATTICE_WORK_BUDGET = 2**34


def _check_lattice_work(k: int, n: int, w: WeightAssignment, modulus: Optional[int]) -> None:
    """Raise `TooLargeError` when the numeric lattice DP at (k, n) passes
    `LATTICE_WORK_BUDGET`, estimated before any walk.  A value sums at most
    k^(kn) walks, each a product of kn weights; a modulus reduces every
    product of a weight and a residue."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    weight_bits = max(map(abs, (*w.b_prefix, w.b_fill, *w.c_prefix, w.c_fill))).bit_length()
    bits = k * n * (weight_bits + k.bit_length())
    if modulus is not None:
        bits = min(bits, modulus.bit_length() + weight_bits)
    per_point = k * (bits * (max(weight_bits, 30) // 30) + LATTICE_STEP_BITS)
    # The box has at least n + 1 points; the first test keeps math.comb
    # from sizes it could not finish.
    if (
        per_point * (n + 1) > LATTICE_WORK_BUDGET
        or per_point * math.comb(n + k, k) > LATTICE_WORK_BUDGET
    ):
        raise TooLargeError(
            f"the numeric lattice DP (k={k}, n={n}) passes LATTICE_WORK_BUDGET "
            f"= {LATTICE_WORK_BUDGET} step-bits"
        )


# Budget of one bounded run, in term-bits, estimated before any step.  A
# run of every count up to n is charged the terms summed per step (the
# recurrence's order, at most S, or the orbit's nonzeros) times the bits
# of every count up to n, bounded up front as bits(a_i) <= i * bits(R) + 1,
# R the largest absolute row sum of the evaluated matrix, or by bits(m) for
# residues mod m.  Such runs took 90-230 ps per term-bit on a 2-core VM
# with Python 3.11, so the budget stands for 10-30 s.  A single exact
# count is charged the same, though `linrec.term` does 10-20 times less:
# `bounded 3 30 16000` estimates 2.9e10 and took 0.27 s in-process (3-5 s
# count by count); the budget admits n up to about 34,000 there.  A single
# residue on the recurrence route is charged, for each bit of n, 2 S^2
# products mod m (a squaring and its reduction, d <= S), each
# PRODUCT_BITS plus bits(m)^2 / 64 for the digits of a long product and
# its division: measured at 10-380 ps per term-bit for S = 10, 46 and 86
# and m of 20 to 13,288 bits, 1.2-1.7 times the d-term loop at most.
# Where the loop's charge is less (a long m and a short run), the loop
# runs, so a modulus never costs a single count more than the loop did.
BOUNDED_WORK_BUDGET = 2**37

# The least work a count is charged per product, in term-bits: one product
# of small integers costs what big-integer sums cost per PRODUCT_BITS bits.
# Measured at (k, u) = (3, 30) on a 2-core VM with Python 3.11: a d-term
# loop mod 1000003 took 47-115 ns per product, and the exact loop to
# `bounded 3 30 16000` 124-188 ps per estimated term-bit.
PRODUCT_BITS = 2**9


def _plan(
    k: int, u: int, w: WeightAssignment, modulus: Optional[int], stop: int, single: bool
) -> tuple[list[list[tuple[int, int]]], str]:
    """The transfer matrix at the weights *w*, evaluated once, exactly, and
    the route of the counts a_0, ..., a_{stop-1} (only the last when
    *single*): "orbit", "loop" (`linrec.iterate`) or "jump" (`linrec.term`).

    A run of at least RECURRENCE_FROM * S terms takes the recurrence when
    the primes can hold its coefficients: its roots are eigenvalues of T,
    at most R in absolute value, so no coefficient exceeds (1 + R)^S.  A
    single count on it jumps, unless it is a residue whose jump is charged
    more than the loop, which then runs.  A run whose estimated work
    passes `BOUNDED_WORK_BUDGET` raises `TooLargeError`."""
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
    work = width * max(bits, PRODUCT_BITS * stop)
    route = "loop" if recurrence else "orbit"
    if recurrence and single:
        route = "jump"
        if modulus is not None:
            product = PRODUCT_BITS + modulus.bit_length() ** 2 // 64
            jump = 2 * size * size * (stop - 1).bit_length() * product
            route, work = ("jump", jump) if jump < work else ("loop", work)
    if work > BOUNDED_WORK_BUDGET:
        residues = "" if modulus is None else f" mod {_shown(modulus)}"
        raise TooLargeError(
            f"bounded counts for (k={k}, u={u}) up to n={_shown(stop - 1)}{residues} "
            f"need an estimated {_shown(work)} term-bits, over BOUNDED_WORK_BUDGET "
            f"= {BOUNDED_WORK_BUDGET}"
        )
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
    given): component 0 of gamma_n on a short run, else the last of
    `_recurrence_counts`, on the route `_plan` picks."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
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
