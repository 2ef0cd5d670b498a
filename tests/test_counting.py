import itertools
import math
import random
from itertools import islice

import pytest

from sscat import (
    ALL_ONES,
    BallotPath,
    FormulaViolationError,
    InvalidDimensionError,
    InvalidStateError,
    TooLargeError,
    WeightAssignment,
    WeightPolynomial,
    bounded_sequence,
    bounded_sswcn_brute,
    bounded_sswcn_dp,
    build_state_space,
    catalan_number,
    legacy_wcn_brute,
    max_path_height,
    min_path_height,
    ss_height_path,
    sswcn_brute,
    sswt,
    sub_sswcn_brute,
)
from sscat import counting
from sscat.counting import _transfer_matrix
from sscat.errors import InvalidPathError
from sscat.paths import StepKind, lattice_sum
from tests.conftest import random_assignment


def test_catalan_number_values():
    assert [catalan_number(2, n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [catalan_number(3, n) for n in range(6)] == [1, 1, 5, 42, 462, 6006]
    assert [catalan_number(4, n) for n in range(5)] == [1, 1, 14, 462, 24024]
    assert all(catalan_number(1, n) == 1 for n in range(8))
    with pytest.raises(ValueError):
        catalan_number(0, 1)
    with pytest.raises(ValueError):
        catalan_number(2, -1)


def test_catalan_number_matches_three_oracles():
    for n in range(40):
        assert catalan_number(2, n) == math.comb(2 * n, n) // (n + 1)
    n = 3100
    three = 2 * math.factorial(3 * n) // (
        math.factorial(n) * math.factorial(n + 1) * math.factorial(n + 2)
    )
    assert catalan_number(3, n) == three
    # the product formula 0!1!...(n-1)! (kn)! / (k!(k+1)!...(k+n-1)!)
    for k in range(1, 7):
        for n in range(13):
            num = math.prod(math.factorial(i) for i in range(n))
            den = math.prod(math.factorial(k + i) for i in range(n))
            assert catalan_number(k, n) == num * math.factorial(k * n) // den


def test_bounded_dp_matches_dense_iteration():
    rng = random.Random(5)
    for _ in range(30):
        k, u = rng.choice(((2, 3), (3, 4), (3, 7), (4, 6), (4, 9), (5, 8)))
        w = random_assignment(rng)
        modulus = rng.choice((None, 1, 2, 7, 30))
        n = rng.randrange(12)
        matrix = [[e.evaluate(w) for e in row] for row in _transfer_matrix(k, u).entries]
        gamma = [1] + [0] * (len(matrix) - 1)
        for _ in range(n):
            gamma = [sum(a * g for a, g in zip(row, gamma)) for row in matrix]
        expected = gamma[0] if modulus is None else gamma[0] % modulus
        assert bounded_sswcn_dp(k, u, n, w, modulus) == expected


def test_sswcn_brute_golden():
    assert (
        sswcn_brute(3, 2).text()
        == "B0*B2*C2^3*C0 + 2*B0*B2*C4*C2^2*C0 + B0*B2*C4^2*C2*C0 + B0^2*C2^2*C0^2"
    )
    assert sswcn_brute(3, 2).evaluate(ALL_ONES) == catalan_number(3, 2)


def test_legacy_distinct_from_semisymmetric_at_4_1():
    semisymmetric = sswcn_brute(4, 1).drop_c()
    legacy = legacy_wcn_brute(4, 1)
    assert semisymmetric.text() == "B0*B3"
    assert legacy.text() == "B0"
    assert semisymmetric != legacy


def test_path_cap(monkeypatch):
    monkeypatch.setattr(counting, "DEFAULT_PATH_CAP", 10)
    with pytest.raises(TooLargeError):
        sswcn_brute(3, 3)
    with pytest.raises(TooLargeError):
        bounded_sswcn_brute(3, 4, 3)


def test_path_cap_stops_at_the_first_count_over_it(monkeypatch):
    # the path count never decreases in n, so no count past the first one
    # over the cap is needed, however large n is
    asked = []

    def recorded(k, n):
        asked.append(n)
        return catalan_number(k, n)

    monkeypatch.setattr(counting, "catalan_number", recorded)
    for k, n in ((2, 200000), (3, 2500), (3, 32000), (5, 10**9)):
        asked.clear()
        with pytest.raises(TooLargeError) as raised:
            counting.sswcn_lattice(k, n)
        first = next(m for m in range(17) if catalan_number(k, m) > counting.DEFAULT_PATH_CAP)
        assert asked == list(range(first + 1)), (k, n)
        assert str(raised.value) == (
            f"(k={k}, n={n}) has more paths than the cap of {counting.DEFAULT_PATH_CAP}"
        )
    asked.clear()
    assert counting.sswcn_lattice(3, 2).evaluate(ALL_ONES) == 5
    assert asked == [0, 1, 2]
    with pytest.raises(InvalidDimensionError):
        counting.sswcn_lattice(1, 10**9)
    assert asked == [0, 1, 2]


def test_state_space_3_5_golden():
    space = build_state_space(3, 5)
    assert space.states == ((0, 0, 0), (2, 1, 0))
    assert space.states.index((2, 1, 0)) == 1
    assert len(space) == 2


def test_transfer_matrix_3_5_golden():
    matrix = _transfer_matrix(3, 5)
    texts = [[entry.text() for entry in row] for row in matrix.entries]
    assert texts == [
        ["B0*C2*C0", "B0*B2*C2 + B0*B2*C4"],
        ["C2^2*C0 + C4*C2*C0", "B2*C2^2 + 2*B2*C4*C2"],
    ]
    assert [[e.evaluate(ALL_ONES) for e in row] for row in matrix.entries] == [[1, 2], [2, 3]]
    # evaluated keeps each row's nonzero (column, value) pairs
    assert matrix.evaluated(ALL_ONES) == [[(0, 1), (1, 2)], [(0, 2), (1, 3)]]
    assert matrix.evaluated(ALL_ONES, 2) == [[(0, 1)], [(1, 1)]]
    assert matrix.evaluated(WeightAssignment((0,))) == [[], [(0, 2), (1, 3)]]


def block_oracle(k, u):
    """States and entries rebuilt from explicit k-step blocks: a step
    sequence in 1..k is a block from a state when it is a valid sub-ballot
    path from there with height <= u; entry (i, j) sums the sswt of the
    blocks from state i whose endpoint normalizes to state j.  The BFS
    keeps the discovery order of `_transfer_matrix`."""
    zero = (0,) * k
    states, frontier, rows = [zero], [zero], {}
    while frontier:
        discovered = set()
        for state in frontier:
            row = rows[state] = {}
            for steps in itertools.product(range(1, k + 1), repeat=k):
                try:
                    path = BallotPath(k, steps, origin=state)
                except InvalidPathError:
                    continue
                if ss_height_path(path) > u:
                    continue
                end = path.endpoint
                target = tuple(c - end[-1] for c in end)
                row.setdefault(target, WeightPolynomial()).add_monomial(sswt(path))
                if target not in rows and target not in frontier:
                    discovered.add(target)
        frontier = sorted(discovered)
        states.extend(frontier)
    return tuple(states), [
        [rows[a].get(b, WeightPolynomial()).text() for b in states] for a in states
    ]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_transfer_matrix_matches_block_oracle(k):
    for u in range(2 * min_path_height(k) + 3):
        states, texts = block_oracle(k, u)
        matrix = _transfer_matrix(k, u)
        assert matrix.space.states == states, u
        assert [[entry.text() for entry in row] for row in matrix.entries] == texts, u


def test_transfer_matrix_walks_each_state_once(monkeypatch):
    walked = []
    blocks = counting._blocks

    def counted(k, u, a):
        walked.append(a)
        return blocks(k, u, a)

    monkeypatch.setattr(counting, "_blocks", counted)
    for k, u in ((3, 5), (4, 12), (5, 10)):
        counting._transfer_matrix.cache_clear()
        counting.build_state_space.cache_clear()
        walked.clear()
        matrix = counting._transfer_matrix(k, u)
        assert sorted(walked) == sorted(matrix.space.states), (k, u)
        zeros = {id(e) for row in matrix.entries for e in row if e.is_zero()}
        assert len(zeros) <= 1, (k, u)


def test_dp_equals_brute():
    rng = random.Random(20260823)
    assignments = [ALL_ONES] + [random_assignment(rng) for _ in range(3)]
    for k in (2, 3, 4):
        for u in range(min_path_height(k), 2 * min_path_height(k) + 1):
            for n in range(4):
                brute = bounded_sswcn_brute(k, u, n)
                for w in assignments:
                    assert bounded_sswcn_dp(k, u, n, w) == brute.evaluate(w)


def test_dp_modulus():
    w = WeightAssignment(b_prefix=(3, 1, 4, 1, 5), c_prefix=(9, 2, 6))
    for n in range(6):
        full = bounded_sswcn_dp(3, 6, n, w)
        assert bounded_sswcn_dp(3, 6, n, w, modulus=97) == full % 97


def test_bounded_catalan_saturates():
    for k, n in ((2, 4), (3, 3), (4, 2)):
        top = max_path_height(k, n)
        assert bounded_sswcn_dp(k, top, n) == catalan_number(k, n)
        assert bounded_sswcn_dp(k, top + 5, n) == catalan_number(k, n)
        if n >= 1:
            assert bounded_sswcn_dp(k, min_path_height(k) - 1, n) == 0
    assert [bounded_sswcn_dp(3, 4, n) for n in range(7)] == [1, 1, 5, 21, 89, 377, 1597]


def test_bounded_catalan_monotone_in_u():
    for u in range(2, 12):
        assert bounded_sswcn_dp(3, u, 3) <= bounded_sswcn_dp(3, u + 1, 3)


def test_sub_sswcn_translation_invariance():
    # paths from (1,1,1) to (n,n,n) are height-shifted copies of paths
    # from the origin to (n-1, n-1, n-1)
    for n in (1, 2, 3):
        assert sub_sswcn_brute(3, 4, (1, 1, 1), n) == bounded_sswcn_brute(3, 4, n - 1)
    with pytest.raises(InvalidStateError):
        sub_sswcn_brute(3, 4, (0, 1, 0), 2)
    with pytest.raises(InvalidStateError):
        sub_sswcn_brute(3, 2, (2, 1, 0), 2)  # height 4 above the bound


def test_sub_sswcn_explicit():
    # exactly two sub-ballot paths reach (2,2,2) from (2,1,0) under the
    # bound: (e2,e3,e3) with weight C4*C2*C0 and (e3,e2,e3) with C2^2*C0
    poly = sub_sswcn_brute(3, 4, (2, 1, 0), 2)
    assert poly.text() == "C2^2*C0 + C4*C2*C0"


def test_height_extremes():
    assert min_path_height(3) == 2
    assert min_path_height(4) == 4
    assert min_path_height(5) == 6
    assert max_path_height(3, 4) == 8
    assert max_path_height(4, 3) == 12


def orbit_counts(k, u, w, count, modulus=None):
    """The first *count* counts (mod *modulus* when given), read off the
    orbit alone."""
    rows = _transfer_matrix(k, u).evaluated(w, modulus)
    return [gamma[0] for gamma in islice(counting._orbit(rows, modulus), count)]


RECURRENCE_SIZES = ((3, 12), (3, 20), (3, 30), (4, 24), (5, 20), (5, 30))


@pytest.fixture
def recurrences(monkeypatch):
    """Every recurrence `_minimal_recurrence` returns, in call order."""
    found = []
    search = counting._minimal_recurrence

    def recorded(terms, size):
        found.append(search(terms, size))
        return found[-1]

    monkeypatch.setattr(counting, "_minimal_recurrence", recorded)
    return found


@pytest.mark.parametrize("k,u", RECURRENCE_SIZES)
def test_recurrence_route_matches_the_orbit_for_every_small_n(k, u, recurrences):
    rng = random.Random(20261018 + 100 * k + u)
    zero_fill = WeightAssignment((1,) * 6, 0)
    size = len(build_state_space(k, u))
    threshold = counting.RECURRENCE_FROM * size
    weights = (ALL_ONES, random_assignment(rng), random_assignment(rng), zero_fill)
    for w, m in itertools.product(weights, (None, 1, 12, 1000003, 2**61 - 1)):
        # residues take the route of exact runs: a modulus only reduces
        expected = orbit_counts(k, u, w, 201, m)
        recurrences.clear()
        assert bounded_sequence(k, u, 201, w, m) == expected, (w, m)
        assert bounded_sequence(k, u, threshold - 1, w, m) == expected[: threshold - 1], (w, m)
        for n in (threshold - 2, threshold - 1, 200):
            assert bounded_sswcn_dp(k, u, n, w, m) == expected[n], (w, m, n)
        # the recurrence answers exactly the runs of at least 4S terms
        assert len(recurrences) == 3, (w, m)
        if w is zero_fill:
            # the minimal polynomial has an x^j factor
            assert all(q[-1] == 0 for q in recurrences)


def test_coefficients_past_the_primes_capacity_take_the_orbit(recurrences):
    # every weight x makes R >= x, and x^S passes the primes' product
    for k, u in ((3, 12), (4, 24)):
        size = len(build_state_space(k, u))
        w = WeightAssignment((), 2 ** (1400 // size + 1))
        count = counting.RECURRENCE_FROM * size + 1
        assert bounded_sequence(k, u, count, w) == orbit_counts(k, u, w, count)
        # a modulus does not change the route
        residues = bounded_sequence(k, u, count, w, 1000003)
        assert residues == orbit_counts(k, u, w, count, 1000003)
    assert not recurrences


def bounded_lattice_mod(k, u, n, w, p):
    """The u-bounded count of length k*n mod p by the height-bounded
    lattice DP, which never builds the state space."""

    def step(vector, kind, g, g2):
        value = vector[None] * (w.b(g) if kind is StepKind.UP else w.c(g2))
        return ((None, value % p),)

    return lattice_sum(k, n, {None: 1}, step, height_bound=u).get(None, 0) % p


@pytest.mark.parametrize("k,u,n", [(3, 30, 300), (3, 20, 400), (4, 24, 150)])
def test_large_n_exact_counts_match_the_bounded_lattice_mod_primes(k, u, n, recurrences):
    w = random_assignment(random.Random(k * 1000 + u * 10 + n))
    exact = bounded_sswcn_dp(k, u, n, w)
    assert len(recurrences) == 1
    for p in (1000003, 2**61 - 1):
        expected = bounded_lattice_mod(k, u, n, w, p)
        assert exact % p == expected, p
        assert bounded_sswcn_dp(k, u, n, w, p) == expected, p
    assert len(recurrences) == 3


def test_the_proof_rejects_a_wrong_or_unprovable_recurrence(monkeypatch):
    size = len(build_state_space(3, 30))
    terms = orbit_counts(3, 30, ALL_ONES, 2 * size)
    q = counting._minimal_recurrence(terms, size)
    assert len(q) == size and counting._proves(terms, size, q)
    perturbed = q[:7] + [q[7] + 1] + q[8:]
    assert not counting._proves(terms, size, perturbed)
    # times (x - 1): a true recurrence of every term, but of order S + 1,
    # which 2S terms cannot prove
    poly = [1] + [-c for c in q] + [0]
    longer = [-(poly[i] - poly[i - 1]) for i in range(1, size + 2)]
    assert all(
        terms[n] == sum(c * terms[n - i] for i, c in enumerate(longer, 1))
        for n in range(size + 1, len(terms))
    )
    assert not counting._proves(terms, size, longer)
    for wrong in (perturbed, longer):
        monkeypatch.setattr(counting, "_berlekamp_massey", lambda terms, p: [c % p for c in wrong])
        with pytest.raises(FormulaViolationError):
            bounded_sswcn_dp(3, 30, 300)


def test_an_unlucky_prime_does_not_derail_the_search(monkeypatch):
    # a prime that divides a discrepancy finds too short a recurrence;
    # simulate one first and one after the true order is known
    search = counting._berlekamp_massey
    calls = []

    def unlucky(terms, p):
        calls.append(p)
        found = search(terms, p)
        return found[:-1] if len(calls) in (1, 3) else found

    monkeypatch.setattr(counting, "_berlekamp_massey", unlucky)
    assert bounded_sswcn_dp(3, 30, 300) == orbit_counts(3, 30, ALL_ONES, 301)[-1]
    assert len(calls) >= 4


def test_exact_bounded_work_budget():
    for call in (
        lambda: bounded_sswcn_dp(3, 30, 10**6),
        lambda: bounded_sequence(3, 30, 10**6 + 1),
        lambda: bounded_sswcn_dp(3, 12, 10**5, WeightAssignment((), 10**20)),
        # residues: each product is charged at least PRODUCT_BITS
        lambda: bounded_sswcn_dp(3, 30, 10**8, modulus=1000003),
        lambda: bounded_sequence(3, 30, 10**7, modulus=2**61 - 1),
        lambda: bounded_sswcn_dp(3, 12, 10**9, modulus=1),
        # and so are exact counts that never grow
        lambda: bounded_sswcn_dp(3, 30, 10**8, WeightAssignment((), 0)),
    ):
        with pytest.raises(TooLargeError, match="BOUNDED_WORK_BUDGET"):
            call()
    # the estimate is made before any step: `bounded 3 30 16000` stays in,
    # and so do its residues up to n = 5 * 10**6
    counting._counts(3, 30, ALL_ONES, None, 16001)
    counting._counts(3, 30, ALL_ONES, 1000003, 5 * 10**6 + 1)
