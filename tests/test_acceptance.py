"""Acceptance gate: one test per criterion, each printing one PASS line.

Where the source tables contain arithmetic typos, the values asserted
here are the ones confirmed independently by exhaustive enumeration (see
the golden-table constants in test_triangles and the tally note below).
"""

import random

from sscat import (
    ALL_ONES,
    BallotPath,
    bounded_sequence,
    bounded_sswcn_brute,
    bounded_sswcn_dp,
    build_state_space,
    catalan_number,
    detect_eventual_period,
    enumerate_paths,
    fetch_bfile,
    height_histogram,
    height_triangle_row,
    legacy_wcn_brute,
    max_path_height,
    min_path_height,
    narayana_row,
    path_to_tableau,
    reflect_point,
    ss_height_path,
    ss_height_point,
    sswcn_brute,
    tableau_to_path,
    tally,
    verify_closed_4_6_and_5_8,
    verify_min_u_formulas,
    verify_recurrence_3_4,
)
from sscat.counting import _transfer_matrix
from sscat.syt import Tableau
from tests.conftest import random_assignment
from tests.test_triangles import (
    HEIGHT_ROWS_K3,
    HEIGHT_ROWS_K4,
    NARAYANA_ROWS_K3,
    NARAYANA_ROWS_K4,
)


def test_criterion_1_golden_tables():
    for n, expected in HEIGHT_ROWS_K3.items():
        assert height_triangle_row(3, n).entries == expected
    for n, expected in HEIGHT_ROWS_K4.items():
        assert height_triangle_row(4, n).entries == expected
    for n, expected in NARAYANA_ROWS_K3.items():
        assert narayana_row(3, n).entries == expected
    for n, expected in NARAYANA_ROWS_K4.items():
        assert narayana_row(4, n).entries == expected
    print("criterion 1 (golden height and Narayana tables): PASS")


def test_criterion_2_symbolic_golden():
    assert (
        sswcn_brute(3, 2).text()
        == "B0*B2*C2^3*C0 + 2*B0*B2*C4*C2^2*C0 + B0*B2*C4^2*C2*C0 + B0^2*C2^2*C0^2"
    )
    print("criterion 2 (symbolic weighted count at k=3, n=2): PASS")


def test_criterion_3_oeis_prefixes():
    a015448 = fetch_bfile("A015448", offline=True)
    for n in range(13):
        assert bounded_sswcn_dp(3, 4, n) == a015448.value_at(n)

    # every bundled term, from the lattice DP's height histogram
    a274969 = fetch_bfile("A274969", offline=True)
    for n, value in enumerate(a274969.values, start=a274969.offset):
        assert height_histogram(3, n)[2 * n] == value

    a001246 = fetch_bfile("A001246", offline=True)
    for n, value in enumerate(a001246.values, start=a001246.offset):
        assert height_histogram(4, n)[max_path_height(4, n)] == value

    a060854 = fetch_bfile("A060854", offline=True)
    # square array read by antidiagonals d = k + n, k ascending
    table = {}
    i = a060854.offset
    d = 2
    while i < a060854.offset + len(a060854.values):
        for k in range(1, d):
            if i < a060854.offset + len(a060854.values):
                table[(k, d - k)] = a060854.value_at(i)
                i += 1
        d += 1
    for k in range(1, 5):
        for n in range(1, 5):
            assert catalan_number(k, n) == table[(k, n)]
    print("criterion 3 (OEIS fixture prefixes): PASS")


def test_criterion_4_closed_forms():
    rng = random.Random(4)
    assignments = [ALL_ONES] + [
        random_assignment(rng, lo=-5, hi=5) for _ in range(5)
    ]
    verify_recurrence_3_4(10, assignments)
    verify_closed_4_6_and_5_8(10, assignments)
    for k in (3, 4, 5):
        for n in (1, 2, 3):
            verify_min_u_formulas(k, n)
    print("criterion 4 (recurrence and closed forms): PASS")


def test_criterion_5_dp_vs_brute():
    rng = random.Random(5)
    assignments = [random_assignment(rng) for _ in range(3)]
    for k in (2, 3, 4):
        for u in range(3 * min_path_height(k) + 1):
            for n in range(4):
                brute = bounded_sswcn_brute(k, u, n)
                for w in assignments:
                    assert bounded_sswcn_dp(k, u, n, w) == brute.evaluate(w)
    print("criterion 5 (transfer-matrix DP equals brute force): PASS")


def test_criterion_6_transfer_matrix_golden():
    space = build_state_space(3, 5)
    assert space.states == ((0, 0, 0), (2, 1, 0))
    matrix = _transfer_matrix(3, 5)
    assert [[entry.text() for entry in row] for row in matrix.entries] == [
        ["B0*C2*C0", "B0*B2*C2 + B0*B2*C4"],
        ["C2^2*C0 + C4*C2*C0", "B2*C2^2 + 2*B2*C4*C2"],
    ]
    print("criterion 6 (transfer matrix golden): PASS")


def test_criterion_7_periodicity():
    for k in (3, 4):
        for u in (4, 6):
            for m in (2, 3, 5, 7):
                report = detect_eventual_period(k, u, m=m)
                t, omega = report.preperiod, report.vector_period
                horizon = t + 4 * omega
                seq = bounded_sequence(k, u, horizon + 1, modulus=m)
                for n in range(t, horizon - omega + 1):
                    assert seq[n] == seq[n + omega]
                if (k, u) == (3, 4):
                    oracle = [1, 1]
                    while len(oracle) <= horizon:
                        oracle.append((4 * oracle[-1] + oracle[-2]) % m)
                    assert seq == oracle
                if (k, u) == (4, 6):
                    oracle = [1] + [
                        2 ** (n - 1) % m for n in range(1, horizon + 1)
                    ]
                    assert seq == oracle
    print("criterion 7 (eventual periodicity mod m): PASS")


def test_criterion_8_property_suite():
    # row sums, parity zeros
    for k in (2, 3, 4):
        for n in range(5):
            assert height_triangle_row(k, n).total() == catalan_number(k, n)
            assert narayana_row(k, n).total() == catalan_number(k, n)
    for n in range(1, 5):
        assert all(u % 2 == 0 for u in height_triangle_row(3, n).entries)
        assert 0 not in narayana_row(4, n).entries
        assert 0 not in narayana_row(2, n).entries

    # height bounds on every enumerated path
    for k in range(2, 6):
        for n in (1, 2):
            for steps in enumerate_paths(k, n):
                h = ss_height_path(BallotPath(k, steps))
                assert min_path_height(k) <= h <= max_path_height(k, n)

    # the reflection through the box center preserves the height
    for k in range(2, 6):
        for point in _grid(k, 4):
            assert ss_height_point(reflect_point(k, 4, point)) == ss_height_point(
                point
            )

    # tableau bijection round-trips
    for n in range(4):
        for steps in enumerate_paths(3, n):
            path = BallotPath(3, steps)
            assert tableau_to_path(path_to_tableau(path)).steps == steps

    # ascents + descents = N - 1, and the worked 3x4 tableau
    for n in range(1, 4):
        for steps in enumerate_paths(3, n):
            t = path_to_tableau(BallotPath(3, steps))
            row_by_entry = {v: j for j, r in enumerate(t.rows) for v in r}
            descents = sum(
                1 for i in range(1, t.size) if row_by_entry[i + 1] > row_by_entry[i]
            )
            assert (t.size - 1 - descents) + descents == t.size - 1
    # the worked 3x4 tableau has descents at 2, 4, 8, 9, hence 7 - 4 = 3
    # (the source text miscounts one ascent and states 4)
    worked = Tableau(((1, 2, 4, 7), (3, 5, 6, 8), (9, 10, 11, 12)))
    assert tally(worked) == 3

    # two distinct 18-dimensional balanced paths at the minimal height 81;
    # the second path's tail is reordered so that every prefix stays a
    # ballot point (the source's literal step order is not a ballot path)
    p0 = BallotPath(18, tuple(range(1, 19)) * 2)
    p_prime = BallotPath(
        18,
        tuple(
            list(range(1, 17))
            + [1, 2, 17, 18]
            + list(range(3, 17))
            + [17, 18]
        ),
    )
    assert p0.steps != p_prime.steps
    assert p0.is_balanced() and p_prime.is_balanced()
    assert ss_height_path(p0) == ss_height_path(p_prime) == 81 == min_path_height(18)
    print("criterion 8 (property suite): PASS")


def _grid(k, top):
    points = [()]
    for _ in range(k):
        points = [p + (x,) for p in points for x in range(top + 1)]
    return points


def test_criterion_9_distinctness():
    assert sswcn_brute(4, 1).drop_c().text() == "B0*B3"
    assert legacy_wcn_brute(4, 1).text() == "B0"
    print("criterion 9 (semisymmetric vs legacy weights differ): PASS")
