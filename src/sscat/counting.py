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
orbit's first 2S exact terms, find their minimal recurrence, of order
d <= S, by Berlekamp-Massey modulo 62-bit primes lifted by the Chinese
remainder theorem, and prove it over the integers on those 2S terms
(Cayley-Hamilton bounds the residual's order by S); each further term is
then one d-term sum.  A recurrence over the integers holds mod every m,
so a modulus never picks the route: it only reduces the orbit's vectors,
or the recurrence's head, coefficients and sums.  Every run estimates
its work up front and refuses it past `BOUNDED_WORK_BUDGET`.  The `*_brute`
functions, the test oracle, share one loop, `_brute_sum`, that sums
weights over enumerated paths.  Wherever these routes overlap they agree
exactly.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from itertools import islice
from operator import mul
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


# Budget of `sscat enumerate`: the paths it prints, counted before the
# first write.  On a 2-core VM with Python 3.11 a path takes about 2 us to
# find and print, so the largest admitted commands, `enumerate 4 5` and
# `enumerate 5 4` (1.66e6 paths each), take 3.2-3.7 s; `enumerate 2 14`
# (2.7e6) is refused, and `enumerate 6 6` would print 1.67e15.
ENUMERATE_PATH_BUDGET = 2**21


def _check_enumeration(k: int, n: int, u: Optional[int] = None) -> None:
    """Raise `TooLargeError` when `enumerate_paths(k, n, u)` yields more than
    `ENUMERATE_PATH_BUDGET` paths: the Catalan number decides, and under a
    bound below the largest height, the count of the paths of height <= u."""
    over = _paths_over(k, n, ENUMERATE_PATH_BUDGET)
    if over and u is not None and u < max_path_height(k, n):
        over = bounded_sswcn_dp(k, u, n) > ENUMERATE_PATH_BUDGET
    if over:
        bound = "" if u is None else f" of height <= {u}"
        raise TooLargeError(
            f"(k={k}, n={n}) has more paths{bound} than ENUMERATE_PATH_BUDGET "
            f"= {ENUMERATE_PATH_BUDGET}"
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

# Berlekamp-Massey runs modulo these primes, the 24 largest below 2^62.
# A prime that divides a discrepancy finds too short a recurrence; the
# capacity leaves room for two such primes.
_PRIMES = tuple(
    (1 << 62) - d
    for d in (57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317)
    + (443, 483, 495, 575, 581, 603, 633, 663, 765, 773, 777, 791)
)
_CAPACITY = math.prod(_PRIMES[2:])

# Budget of one bounded run: terms summed per step (the recurrence's
# order, at most S, or the orbit's nonzeros) times the bits of every count
# up to n, bounded up front as bits(a_i) <= i * bits(R) + 1, R the largest
# absolute row sum of the evaluated matrix, or by bits(m) for residues
# mod m.  `bounded 3 30 16000` estimates 2.9e10 and takes about 5 s on a
# 2-core VM with Python 3.11; the budget admits n up to about 34,000 there.
BOUNDED_WORK_BUDGET = 2**37

# The least work a count is charged per term, in term-bits: one product of
# small integers costs what big-integer sums cost per PRODUCT_BITS bits.
# Measured at (k, u) = (3, 30) on a 2-core VM with Python 3.11: a
# recurrence product mod 1000003 took 64-80 ns (166 ns mod 2^61 - 1), and
# the exact `bounded 3 30 16000` took 124-188 ps per estimated term-bit.
# The budget admits `bounded 3 30 n --mod 1000003` up to n of about 5.8e6.
PRODUCT_BITS = 2**9


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


def _berlekamp_massey(terms: list[int], p: int) -> list[int]:
    """The shortest recurrence a_n = q_1 a_{n-1} + ... + q_L a_{n-L} that
    generates *terms*, residues mod the prime *p*, as [q_1, ..., q_L] mod p
    (Massey, 1969)."""
    c, b = [1], [1]  # connection polynomials: now and before the last lengthening
    length, gap, last = 0, 1, 1
    for n in range(len(terms)):
        delta = sum(map(mul, c, terms[n::-1])) % p
        if delta == 0:
            gap += 1
            continue
        scale = delta * pow(last, -1, p) % p
        previous = c
        c = c + [0] * (len(b) + gap - len(c))
        for i, x in enumerate(b):
            c[i + gap] = (c[i + gap] - scale * x) % p
        if 2 * length <= n:
            length, b, last, gap = n + 1 - length, previous, delta, 1
        else:
            gap += 1
    c += [0] * (length + 1 - len(c))
    return [-x % p for x in c[1 : length + 1]]


def _proves(terms: list[int], size: int, q: list[int]) -> bool:
    """Whether a_n = q_1 a_{n-1} + ... + q_d a_{n-d} for every n >= d, where
    *terms* are a_0, ..., a_{2S-1} of the orbit of an S x S matrix T.

    The residual r_n = a_n - q_1 a_{n-1} - ... - q_d a_{n-d} (n >= d) is
    e_0^T P(T) T^(n-d) e_0 for a polynomial P, so the characteristic
    polynomial of T, of degree S, annihilates it too (Cayley-Hamilton):
    zero at n = d, ..., d + S - 1, it is zero for every n.  Those indices
    lie within the terms exactly when d <= S."""
    d = len(q)
    return len(terms) >= d + size and all(
        terms[n] == sum(map(mul, q, reversed(terms[n - d : n])))
        for n in range(d, len(terms))
    )


def _minimal_recurrence(terms: list[int], size: int) -> list[int]:
    """The minimal integer recurrence [q_1, ..., q_d] of the counts whose
    first 2S *terms* are given, proved by `_proves`.

    Berlekamp-Massey modulo each prime of `_PRIMES` in turn only searches:
    its order never exceeds the true one, so the longest order seen wins,
    and primes that agree on it are combined by the Chinese remainder
    theorem into symmetric integer coefficients until those pass the
    proof.  Running out of primes raises `FormulaViolationError`."""
    order, modulus, lifted = -1, 1, []
    for p in _PRIMES:
        found = _berlekamp_massey([a % p for a in terms], p)
        if len(found) < order:
            continue
        if len(found) > order:
            order, modulus, lifted = len(found), 1, [0] * len(found)
        inverse = pow(modulus, -1, p)
        lifted = [x + modulus * ((r - x) * inverse % p) for x, r in zip(lifted, found)]
        modulus *= p
        q = [x - modulus if 2 * x > modulus else x for x in lifted]
        if _proves(terms, size, q):
            return q
    raise FormulaViolationError(
        f"no recurrence found modulo {len(_PRIMES)} primes is proved on the "
        f"first {len(terms)} counts (order <= {size})",
        expected=terms,
        actual=q,
    )


def _recurrence_counts(
    rows: list[list[tuple[int, int]]], modulus: Optional[int], stop: int
) -> Iterator[int]:
    """The counts a_0, ..., a_{stop-1} (mod *modulus* when given), for
    stop >= 2S: the first 2S exactly from `_orbit`, the rest from the
    minimal recurrence they prove over the integers, each one d-term sum
    over a window of the last d counts.  A modulus reduces the head and
    the coefficients once, and each sum as it is appended."""
    size = len(rows)
    exact = [gamma[0] for gamma in islice(_orbit(rows, None), 2 * size)]
    head = exact if modulus is None else [a % modulus for a in exact]
    yield from head
    q = _minimal_recurrence(exact, size)
    window = deque(head[-len(q) :], maxlen=len(q))
    reverse = [c if modulus is None else c % modulus for c in reversed(q)]
    for _ in range(stop - len(head)):
        a = sum(map(mul, reverse, window))
        if modulus is not None:
            a %= modulus
        window.append(a)
        yield a


def _counts(
    k: int, u: int, w: WeightAssignment, modulus: Optional[int], stop: int
) -> Iterator[int]:
    """The u-bounded weighted counts a_0, ..., a_{stop-1} (mod *modulus*
    when given), with T evaluated once, exactly.

    The route depends on the run alone, never on the modulus.  Short runs
    read component 0 of `_orbit`.  A run of at least RECURRENCE_FROM * S
    terms takes `_recurrence_counts`, when the primes can hold the
    recurrence's coefficients: its roots are eigenvalues of T, at most R
    in absolute value, so no coefficient exceeds (1 + R)^S.  A run whose
    estimated work passes `BOUNDED_WORK_BUDGET` raises `TooLargeError`
    before any step."""
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    rows = _transfer_matrix(k, u).evaluated(w)
    size = len(rows)
    growth = max(sum(abs(v) for _, v in row) for row in rows)
    recurrence = stop >= RECURRENCE_FROM * size and 2 * (1 + growth) ** size < _CAPACITY
    width = size if recurrence else sum(map(len, rows))
    bits = growth.bit_length() * stop * (stop - 1) // 2 + stop
    if modulus is not None:
        bits = min(bits, modulus.bit_length() * stop)
    work = width * max(bits, PRODUCT_BITS * stop)
    if work > BOUNDED_WORK_BUDGET:
        residues = "" if modulus is None else f" mod {modulus}"
        raise TooLargeError(
            f"bounded counts for (k={k}, u={u}) up to n={stop - 1}{residues} "
            f"need an estimated {work} term-bits, over BOUNDED_WORK_BUDGET "
            f"= {BOUNDED_WORK_BUDGET}"
        )
    if recurrence:
        return _recurrence_counts(rows, modulus, stop)
    return (gamma[0] for gamma in islice(_orbit(rows, modulus), stop))


def bounded_sswcn_dp(
    k: int,
    u: int,
    n: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> int:
    """The u-bounded weighted count of length k*n (mod *modulus* when
    given): the last of `_counts` up to n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return deque(_counts(k, u, w, modulus, n + 1), maxlen=1)[0]


def bounded_sequence(
    k: int,
    u: int,
    count: int,
    w: WeightAssignment = ALL_ONES,
    modulus: Optional[int] = None,
) -> list[int]:
    """The u-bounded weighted counts of lengths 0, k, ..., k*(count-1)
    (mod *modulus* when given), from one pass of `_counts`."""
    return list(_counts(k, u, w, modulus, count))


def max_path_height(k: int, n: int) -> int:
    """Largest semisymmetric height attainable by a length-k*n balanced path."""
    return (k // 2) * ((k + 1) // 2) * n


def min_path_height(k: int) -> int:
    """Smallest semisymmetric height of any nonempty balanced path."""
    return (k // 2) * ((k + 1) // 2)
