import itertools
import math
import random
from collections import Counter
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
from sscat import counting, errors, linrec
from sscat.counting import _transfer_matrix
from sscat.errors import InvalidPathError
from sscat.paths import StepKind, lattice_diagonal
from sscat.periodicity import detect_eventual_period
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
    for k in range(1, 12):
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
        assert bounded_sequence(k, u, n + 1, w, modulus)[n] == expected
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
    # two walk steps per path step: 5 paths of 6 steps fit 100 us, 42 of 9 do not
    monkeypatch.setattr(errors, "TIME_LIMIT_S", 100e-6)
    assert sswcn_brute(3, 2).evaluate(ALL_ONES) == 5
    with pytest.raises(TooLargeError, match="brute force over the paths of"):
        sswcn_brute(3, 3)
    with pytest.raises(TooLargeError):
        bounded_sswcn_brute(3, 4, 3)
    # at the measured unit costs, the largest n each k admits, and one more
    monkeypatch.undo()
    for k, n in ((2, 10), (3, 5), (4, 4), (5, 3)):
        counting._check_cap(k, n)
        with pytest.raises(TooLargeError):
            counting._check_cap(k, n + 1)


def test_the_catalan_and_numeric_lattice_charges_meet_the_limit_at_their_edges(monkeypatch):
    # estimates only: the last input each admits, and the first it refuses
    counting._check_lattice_work(3, 129, ALL_ONES, None)
    with pytest.raises(TooLargeError, match=r"numeric lattice walk at \(k=3, n=130\) needs"):
        counting._check_lattice_work(3, 130, ALL_ONES, None)

    class Divided(Exception):
        pass

    def divided(*args):
        raise Divided

    monkeypatch.setattr(counting.math, "perm", divided)
    with pytest.raises(Divided):
        catalan_number(3, 47538)
    with pytest.raises(TooLargeError, match=r"Catalan number \(k=3, n=47539\) needs"):
        catalan_number(3, 47539)


def test_path_cap_stops_at_the_first_count_over_it(monkeypatch):
    # the path count never decreases in n, so no count past the first one
    # over the cap is needed, however large n is
    asked = []

    def recorded(k, n):
        asked.append(n)
        return catalan_number(k, n)

    monkeypatch.setattr(counting, "catalan_number", recorded)
    # the walks of these boxes fit, but not their paths' terms: the scan
    # stops at the first count past the limit, the one asked last
    for k, n, first in ((2, 60, 13), (3, 40, 7), (4, 20, 5), (6, 8, 4)):
        asked.clear()
        with pytest.raises(TooLargeError) as raised:
            counting.sswcn_lattice(k, n)
        assert asked == list(range(first + 1)), (k, n)
        assert str(raised.value).startswith(f"the symbolic lattice walk at (k={k}, n={n}) needs")
    # these boxes alone pass the limit, before any count is asked
    for k, n in ((2, 200000), (3, 2500), (3, 32000), (5, 10**9)):
        asked.clear()
        with pytest.raises(TooLargeError, match=f"walk at \\(k={k}, n={n}\\) needs"):
            counting.sswcn_lattice(k, n)
        assert asked == [], (k, n)
    asked.clear()
    assert counting.sswcn_lattice(3, 2).evaluate(ALL_ONES) == 5
    assert asked == [0, 1, 2]
    with pytest.raises(InvalidDimensionError):
        counting.sswcn_lattice(1, 10**9)
    assert asked == [0, 1, 2]


def test_symbolic_tag_budget_charges_the_tags_of_the_box(monkeypatch):
    # one path at n = 1, but each of its k steps moves a tag of
    # 2 (max_path_height + 1) slots of 2 bytes: k = 1094 is just inside
    # the limit, and k = 1095 just outside, refused before the walk
    class Walked(Exception):
        pass

    def walked(*args, **kwargs):
        raise Walked

    monkeypatch.setattr(counting, "lattice_diagonal", walked)
    with pytest.raises(Walked):
        counting.sswcn_lattice(1094, 1)
    with pytest.raises(TooLargeError, match=r"symbolic lattice walk at \(k=1095, n=1\) needs"):
        counting.sswcn_lattice(1095, 1)
    monkeypatch.undo()
    assert not counting.sswcn_lattice(644, 1).is_zero()
    # a low bound keeps the tags narrow: no path of (1000, 1) stays below 10
    assert counting.sswcn_lattice(1000, 1, u=10).is_zero()


def test_enumeration_budget_counts_the_paths_up_front():
    cost, limit = errors.COST["printed step"], errors.TIME_LIMIT_S
    for k, n in ((4, 4), (3, 6), (2, 12), (5, 3)):
        assert catalan_number(k, n) * k * n * cost <= limit
        counting._check_enumeration(k, n)
    # the largest ones that fit before, now past the limit: 1.66e6 paths of
    # 20 steps at (4, 5) and (5, 4), 1.39e6 of 21 at (3, 7), 7.4e5 of 26
    for k, n in ((2, 13), (3, 7), (4, 5), (5, 4)):
        assert catalan_number(k, n) * k * n * cost > limit
        with pytest.raises(TooLargeError, match=f"enumerating the paths of .k={k}, n={n}. needs"):
            counting._check_enumeration(k, n)
    for k, n, u in ((2, 14, None), (6, 6, None), (3, 8, 100), (3, 40, 4)):
        with pytest.raises(TooLargeError, match="enumerating the paths of"):
            counting._check_enumeration(k, n, u)
    # A bound below the largest height counts only the paths under it.
    assert catalan_number(6, 6) * 36 * cost > limit >= bounded_sswcn_dp(6, 9, 6) * 36 * cost
    counting._check_enumeration(6, 6, 9)
    assert bounded_sswcn_dp(3, 4, 9) * 27 * cost <= limit < bounded_sswcn_dp(3, 4, 10) * 30 * cost
    counting._check_enumeration(3, 9, 4)
    # and so does a Catalan number inside the limit whose steps are not:
    # C_14 = 2,674,440 paths of 28 steps, but one of height 1
    assert catalan_number(2, 14) * cost <= limit < catalan_number(2, 14) * 28 * cost
    for k, n, u in ((2, 14, 1), (2, 15, 2), (3, 8, 2)):
        counting._check_enumeration(k, n, u)
    with pytest.raises(TooLargeError, match="of height <= 4 needs"):
        counting._check_enumeration(3, 10, 4)
    # One path of K steps holds K + 1 points of K coordinates each: the
    # limit admits K = 3428 (11,754,612 steps and coordinates), not 3429.
    counting._check_enumeration(3428, 1)
    for k in (3429, 12000):
        with pytest.raises(TooLargeError, match="enumerating the paths of"):
            counting._check_enumeration(k, 1)
    # the bytes of one path's points are charged before its count is asked
    with pytest.raises(TooLargeError, match=r"\(k=100000000, n=1\) needs an estimated"):
        counting._check_enumeration(10**8, 1)


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
                row.setdefault(target, Counter())[sswt(path)] += 1
                if target not in rows and target not in frontier:
                    discovered.add(target)
        frontier = sorted(discovered)
        states.extend(frontier)
    return tuple(states), [[dict(rows[a].get(b, {})) for b in states] for a in states]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_transfer_matrix_matches_block_oracle(k):
    # The numeric rows, walked with the step at w, are the symbolic
    # entries evaluated at w, at weights with zeros and negative values.
    rng = random.Random(20261019 + k)
    assignments = [ALL_ONES, WeightAssignment((0, -2, 3), -1, (2, 0, -3), 4)]
    assignments += [random_assignment(rng) for _ in range(3)]
    for u in range(2 * min_path_height(k) + 3):
        states, terms = block_oracle(k, u)
        matrix = _transfer_matrix(k, u)
        assert matrix.space.states == states, u
        entries = matrix.entries
        assert [[entry.terms for entry in row] for row in entries] == terms, u
        for w in assignments:
            for m in (None, 1, 2, 7, 30):
                expected = [
                    [(j, v) for j, e in enumerate(row) if (v := e.evaluate(w, m))]
                    for row in entries
                ]
                assert matrix.evaluated(w, m) == expected, (u, w, m)


def test_transfer_matrix_walks_each_state_once(monkeypatch):
    # Each reading of the matrix walks every state's blocks once.
    walked = []
    blocks = counting._blocks

    def counted(k, u, a, seed, step):
        walked.append(a)
        return blocks(k, u, a, seed, step)

    monkeypatch.setattr(counting, "_blocks", counted)
    for k, u in ((3, 5), (4, 12), (5, 10)):
        counting._transfer_matrix.cache_clear()
        counting.build_state_space.cache_clear()
        matrix = counting._transfer_matrix(k, u)
        readings = {
            "space": lambda: matrix.space,
            "entries": lambda: matrix.entries,
            "evaluated": lambda: matrix.evaluated(ALL_ONES, 7),
        }
        for name, read in readings.items():
            walked.clear()
            read()
            assert sorted(walked) == sorted(matrix.space.states), (k, u, name)
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
                    expected = brute.evaluate(w)
                    assert bounded_sequence(k, u, n + 1, w)[n] == expected
                    assert bounded_sswcn_dp(k, u, n, w) == expected


def test_dp_modulus():
    w = WeightAssignment(b_prefix=(3, 1, 4, 1, 5), c_prefix=(9, 2, 6))
    full = bounded_sequence(3, 6, 6, w)
    assert bounded_sequence(3, 6, 6, w, modulus=97) == [a % 97 for a in full]
    for n in range(6):
        assert bounded_sswcn_dp(3, 6, n, w, modulus=97) == full[n] % 97


def test_bounded_catalan_saturates():
    # through the transfer matrix, which bounded_sswcn_dp skips where the
    # bound cannot bind
    for k, n in ((2, 4), (3, 3), (4, 2)):
        top = max_path_height(k, n)
        assert bounded_sequence(k, top, n + 1)[n] == catalan_number(k, n)
        assert bounded_sequence(k, top + 5, n + 1)[n] == catalan_number(k, n)
        assert bounded_sswcn_dp(k, top, n) == catalan_number(k, n)
        assert bounded_sswcn_dp(k, top + 5, n) == catalan_number(k, n)
        if n >= 1:
            assert bounded_sswcn_dp(k, min_path_height(k) - 1, n) == 0
    expected = [1, 1, 5, 21, 89, 377, 1597]
    assert bounded_sequence(3, 4, 7) == expected
    assert [bounded_sswcn_dp(3, 4, n) for n in range(7)] == expected


def test_bounded_catalan_monotone_in_u():
    counts = [bounded_sequence(3, u, 4)[3] for u in range(2, 13)]
    assert counts == sorted(counts)


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
    """Every recurrence `linrec.minimal_recurrence` returns, in call order."""
    found = []
    search = linrec.minimal_recurrence

    def recorded(terms, size):
        found.append(search(terms, size))
        return found[-1]

    monkeypatch.setattr(linrec, "minimal_recurrence", recorded)
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
        # single terms: the orbit below 4S terms, then x^(n // 2) mod Q,
        # at odd and even n
        for n in (threshold - 2, threshold - 1, threshold, threshold + 1, 199, 200):
            assert bounded_sswcn_dp(k, u, n, w, m) == expected[n], (w, m, n)
        # the recurrence answers exactly the runs of at least 4S terms
        assert len(recurrences) == 6, (w, m)
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

    return lattice_diagonal(k, n, {None: 1}, step, height_bound=u)[n].get(None, 0) % p


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
    q = linrec.minimal_recurrence(terms, size)
    assert len(q) == size and linrec.proves(terms, size, q)
    perturbed = q[:7] + [q[7] + 1] + q[8:]
    assert not linrec.proves(terms, size, perturbed)
    # times (x - 1): a true recurrence of every term, but of order S + 1,
    # which 2S terms cannot prove
    poly = [1] + [-c for c in q] + [0]
    longer = [-(poly[i] - poly[i - 1]) for i in range(1, size + 2)]
    assert all(
        terms[n] == sum(c * terms[n - i] for i, c in enumerate(longer, 1))
        for n in range(size + 1, len(terms))
    )
    assert not linrec.proves(terms, size, longer)
    for wrong in (perturbed, longer):
        monkeypatch.setattr(linrec, "berlekamp_massey", lambda terms, p: [c % p for c in wrong])
        with pytest.raises(FormulaViolationError):
            bounded_sswcn_dp(3, 30, 300)


def test_an_unlucky_prime_does_not_derail_the_search(monkeypatch):
    # a prime that divides a discrepancy finds too short a recurrence;
    # simulate one first and one after the true order is known
    search = linrec.berlekamp_massey
    calls = []

    def unlucky(terms, p):
        calls.append(p)
        found = search(terms, p)
        return found[:-1] if len(calls) in (1, 3) else found

    monkeypatch.setattr(linrec, "berlekamp_massey", unlucky)
    assert bounded_sswcn_dp(3, 30, 300) == orbit_counts(3, 30, ALL_ONES, 301)[-1]
    assert len(calls) >= 4


def test_exact_bounded_work_budget():
    for call in (
        lambda: bounded_sswcn_dp(3, 30, 10**6),
        lambda: bounded_sequence(3, 30, 10**6 + 1),
        lambda: bounded_sswcn_dp(3, 12, 10**5, WeightAssignment((), 10**20)),
        # a single residue: 2 S^2 small products (and bits(m)^2 // 64
        # term-bits) per bit of n, 2 * 46^2 * (1 + 6 * 2^-9) products at
        # (3, 30) mod 1000003, so n of 3,894 bits is just outside; 2 * 10^2
        # products at (3, 12) mod 1, and n of 83,334 bits
        lambda: bounded_sswcn_dp(3, 30, 2**3893, modulus=1000003),
        lambda: bounded_sequence(3, 30, 10**7, modulus=2**61 - 1),
        lambda: bounded_sswcn_dp(3, 12, 2**83333, modulus=1),
        # and so are exact counts that never grow
        lambda: bounded_sswcn_dp(3, 30, 10**8, WeightAssignment((), 0)),
    ):
        with pytest.raises(TooLargeError, match="the bounded run at"):
            call()
    # the estimate is made before any step: `bounded 3 30 16000` stays in,
    # and so does n = 46,331, one short of the first n refused; so do the
    # residues up to n = 362,317 as a sequence, and single residues one bit
    # short of the cases above
    counting._plan(3, 30, ALL_ONES, None, 16001, single=True)
    counting._plan(3, 30, ALL_ONES, None, 46332, single=True)
    with pytest.raises(TooLargeError, match=r"the bounded run at \(k=3, u=30\) up to n=46332 "):
        counting._plan(3, 30, ALL_ONES, None, 46333, single=True)
    counting._plan(3, 30, ALL_ONES, 1000003, 362318, single=False)
    with pytest.raises(TooLargeError):
        counting._plan(3, 30, ALL_ONES, 1000003, 362319, single=False)
    counting._plan(3, 30, ALL_ONES, 1000003, 2**3892 + 1, single=True)
    counting._plan(3, 12, ALL_ONES, 1, 2**83332 + 1, single=True)


def test_a_single_residue_is_charged_its_cheaper_recurrence_route():
    def route(m, stop, single=True):
        return counting._plan(3, 30, ALL_ONES, m, stop, single)[1]

    assert route(None, 2001) == route(1000003, 2001) == "jump"
    assert route(1000003, 2001, single=False) == route(None, 2001, single=False) == "loop"
    assert route(1000003, 4 * 46 - 1) == "orbit"
    # the squarings mod an m of 13,288 bits are charged 1.3e11 term-bits,
    # past the budget; the d-term loop to n = 2048 less, and it runs
    m = 10**4000 + 1
    assert route(m, 2049) == "loop"
    assert bounded_sswcn_dp(3, 30, 2048, modulus=m) == bounded_sswcn_dp(3, 30, 2048) % m


def hankel_cases():
    """(k, u, w, head, q) for small matrices, weights with zeros and
    negative values among them."""
    weights = (
        ALL_ONES,
        WeightAssignment((2, -1, 0, 3), 1, (1, -2, 2), 0),
        WeightAssignment((1, 1, 0), 1, (3,), -1),
        WeightAssignment((), 0),
    )
    for k, u in ((2, 6), (3, 4), (3, 12), (3, 20), (4, 24), (5, 20)):
        for w in weights:
            rows = _transfer_matrix(k, u).evaluated(w)
            head = [gamma[0] for gamma in islice(counting._orbit(rows, None), 2 * len(rows))]
            yield k, u, w, head, linrec.minimal_recurrence(head, len(rows))


@pytest.mark.parametrize(
    "m",
    (None, 1, 12, 1000003, 2**61 - 1, 10**400 + 1),
    ids=("None", "1", "12", "1000003", "2^61-1", "10^400+1"),
)
def test_single_terms_match_the_recurrence_loop_at_every_n(m):
    # x^(n // 2) mod Q and the Hankel form, and the d-term sums mod m,
    # against the exact d-term sums reduced mod m, at every n up to 8S + 2,
    # from the same head and recurrence
    for k, u, w, head, q in hankel_cases():
        size = len(head) // 2
        loop = list(linrec.iterate(head, q, 8 * size + 3))
        if m is not None:
            loop = [a % m for a in loop]
            assert list(linrec.iterate(head, q, len(loop), m)) == loop, (k, u, w)
        assert [linrec.term(head, q, n, m) for n in range(len(loop))] == loop, (k, u, w)


# (k, u, w, m) whose period mod m is short: (t, omega) from the powers of T
# and one period of the orbit check single terms at any n without the
# recurrence.  Their omega: 2232, 1365, 2730, 210, 5208, 1022, 23.
PERIOD_CASES = (
    (3, 12, ALL_ONES, 5),
    (3, 20, ALL_ONES, 2),
    (3, 20, ALL_ONES, 12),
    (3, 12, WeightAssignment((1, 1, 0), 1, (3,), -1), 12),
    (5, 20, ALL_ONES, 5),
    (5, 20, WeightAssignment((1, 1, 0), 1, (3,), -1), 12),
    (2, 6, ALL_ONES, 47),
)


def period_oracle(k, u, w, m, n):
    """a_n mod m by the eventual period of the orbit, which reads the
    powers of T and never the recurrence."""
    report = detect_eventual_period(k, u, w, m)
    t, omega = report.preperiod, report.vector_period
    counts = orbit_counts(k, u, w, t + omega, m)
    return counts[n] if n < t else counts[t + (n - t) % omega]


@pytest.mark.parametrize("n", (10**18, 10**18 + 1))
def test_single_residues_at_huge_n_match_the_eventual_period(n):
    for k, u, w, m in PERIOD_CASES:
        assert bounded_sswcn_dp(k, u, n, w, m) == period_oracle(k, u, w, m, n), (k, u, w, m)


def test_a_wrong_recurrence_coefficient_changes_the_single_term(monkeypatch):
    # negative control for the oracle above: with one coefficient of Q off
    # by one, a_n or a_(n+1) at n = 10^18 must show it
    search = linrec.minimal_recurrence

    def perturbed(terms, size):
        q = search(terms, size)
        return q[:-1] + [q[-1] + 1]

    monkeypatch.setattr(linrec, "minimal_recurrence", perturbed)
    for k, u, w, m in PERIOD_CASES:
        pairs = [
            (bounded_sswcn_dp(k, u, n, w, m), period_oracle(k, u, w, m, n))
            for n in (10**18, 10**18 + 1)
        ]
        assert any(got != expected for got, expected in pairs), (k, u, w, m)
