import itertools
import math
import random

import pytest

from sscat import (
    ALL_ONES,
    BallotPath,
    InvalidDimensionError,
    InvalidStateError,
    TooLargeError,
    WeightAssignment,
    WeightPolynomial,
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
