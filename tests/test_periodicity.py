import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from sscat import (
    ALL_ONES,
    PeriodReport,
    TooLargeError,
    WeightAssignment,
    bounded_sequence,
    bounded_sswcn_dp,
    build_state_space,
    catalan_number,
    check_entrywise_divisibility,
    check_pairwise_product_divisibility,
    detect_eventual_period,
    min_path_height,
    sswcn_brute,
    sswcn_lattice_value,
    unbounded_sswcn_mod,
)
from sscat import linrec, periodicity
from sscat.cli import main
from sscat.counting import _transfer_matrix
from tests.conftest import random_assignment


def test_detect_constant_sequence():
    # bound 2 for k=3 admits a single path with weight 1: constant ones
    report = detect_eventual_period(3, 2, m=7)
    assert report.scalar_period == 1
    assert bounded_sequence(3, 2, 6, modulus=7) == [1, 1, 1, 1, 1, 1]


def test_detect_4_6_mod_3():
    # counts 1, 1, 2, 4, 8, ... give 1, 1, 2, 1, 2, ... mod 3
    report = detect_eventual_period(4, 6, m=3)
    assert bounded_sequence(4, 6, 7, modulus=3) == [1, 1, 2, 1, 2, 1, 2]
    seq = bounded_sequence(4, 6, report.verified_horizon + 1, modulus=3)
    t, omega = report.preperiod, report.scalar_period
    assert omega == 2
    for n in range(t, len(seq) - omega):
        assert seq[n] == seq[n + omega]


def test_detect_3_4_mod_5_matches_recurrence_oracle():
    report = detect_eventual_period(3, 4, m=5)
    horizon = report.verified_horizon
    oracle = [1, 1]
    while len(oracle) <= horizon:
        oracle.append((4 * oracle[-1] + oracle[-2]) % 5)
    assert bounded_sequence(3, 4, horizon + 1, modulus=5) == oracle
    t, omega = report.preperiod, report.vector_period
    for n in range(t, horizon - omega + 1):
        assert oracle[n] == oracle[n + omega]


def test_scalar_period_is_minimal_on_the_horizon():
    # s from the recurrences of acceptance criterion 7, independent of the
    # transfer matrix: a(n) = 4a(n-1) + a(n-2) for (3, 4), 2^(n-1) for (4, 6)
    for k, u in ((3, 4), (4, 6)):
        for m in range(2, 13):
            report = detect_eventual_period(k, u, m=m)
            t, omega = report.preperiod, report.vector_period
            horizon = t + 4 * omega
            assert report.verified_horizon == horizon
            if (k, u) == (3, 4):
                s = [1, 1]
                while len(s) <= horizon:
                    s.append((4 * s[-1] + s[-2]) % m)
            else:
                s = [1] + [pow(2, n - 1, m) for n in range(1, horizon + 1)]
            minimal = next(
                d
                for d in range(1, omega + 1)
                if all(s[n] == s[n + d] for n in range(t, horizon - d + 1))
            )
            assert report.scalar_period == minimal
    report = detect_eventual_period(3, 4, m=4)
    assert (report.vector_period, report.scalar_period) == (2, 1)


def _dict_orbit_report(k, u, w, m, max_steps):
    """The period search by dictionary, as an oracle: step the dense orbit
    mod m until a vector repeats, then take the least divisor d of omega
    under which the omega scalar terms from t on are invariant by a
    cyclic shift.  None when no vector repeats within *max_steps*."""
    matrix = [[e.evaluate(w, m) for e in row] for row in _transfer_matrix(k, u).entries]
    gamma = (1,) + (0,) * (len(matrix) - 1)
    seen, sequence = {}, []
    while gamma not in seen:
        if len(sequence) == max_steps:
            return None
        seen[gamma] = len(sequence)
        sequence.append(gamma[0])
        gamma = tuple(sum(a * g for a, g in zip(row, gamma)) % m for row in matrix)
    t = seen[gamma]
    omega = len(sequence) - t
    scalar = next(
        d
        for d in range(1, omega + 1)
        if omega % d == 0
        and all(sequence[t + i] == sequence[t + (i + d) % omega] for i in range(omega))
    )
    return PeriodReport(t, omega, scalar, m, t + 4 * omega)


def test_period_search_matches_dict_orbit_oracle():
    # composite moduli and weights that vanish mod m give preperiods
    # beyond 1 and scalar periods below the vector period
    rng = random.Random(17)
    late_starts = smaller_scalar = 0
    for _ in range(1000):
        k = rng.randint(2, 5)
        u = rng.randint(0, 2 * min_path_height(k) + 6)
        m = rng.choice((2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 27))
        pool = (0, 0, 1, 2, 3, -1, m, 2 * m)
        w = WeightAssignment(
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))),
            rng.choice(pool),
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))),
            rng.choice(pool),
        )
        report = detect_eventual_period(k, u, w, m)
        assert report == _dict_orbit_report(k, u, w, m, None), (k, u, w, m)
        late_starts += report.preperiod > 1
        smaller_scalar += report.scalar_period < report.vector_period
    assert late_starts >= 50 and smaller_scalar >= 10
    # more states and longer orbits; where the oracle gives up, no vector
    # repeats within its steps, so t + omega must exceed them
    rng = random.Random(5)
    max_steps = 20000
    for _ in range(24):
        k, u = rng.choice(((3, 8), (3, 10), (3, 12), (4, 10), (4, 14), (5, 14)))
        m = rng.choice((5, 7, 11, 25, 36))
        pool = (1, 1, 2, 3, -1, m)
        w = WeightAssignment(
            tuple(rng.choice(pool) for _ in range(3)),
            1,
            tuple(rng.choice(pool) for _ in range(3)),
            rng.choice(pool),
        )
        report = detect_eventual_period(k, u, w, m)
        expected = _dict_orbit_report(k, u, w, m, max_steps)
        if expected is None:
            assert report.preperiod + report.vector_period > max_steps
        else:
            assert report == expected, (k, u, w, m)


def _prime_factors(n):
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    return factors | ({n} if n > 1 else set())


def test_period_3_8_mod_101_certified_by_dense_powers():
    # omega = 35,030,200 is far beyond any orbit walk; certify it with
    # square-and-multiply on the dense matrix written out here
    m = 101
    report = detect_eventual_period(3, 8, m=m)
    omega = 35030200
    assert (report.preperiod, report.vector_period, report.scalar_period) == (
        0,
        omega,
        omega,
    )
    matrix = [[e.evaluate(ALL_ONES, m) for e in row] for row in _transfer_matrix(3, 8).entries]
    size = len(matrix)

    def times(a, b):
        return [
            [sum(a[i][l] * b[l][j] for l in range(size)) % m for j in range(size)]
            for i in range(size)
        ]

    def power(e):
        result = [[int(i == j) for j in range(size)] for i in range(size)]
        base = matrix
        while e:
            if e & 1:
                result = times(result, base)
            base = times(base, base)
            e >>= 1
        return result

    e0 = [1] + [0] * (size - 1)
    assert [row[0] for row in power(omega)] == e0
    for p in _prime_factors(omega):
        shifted = [row[0] for row in power(omega // p)]
        assert shifted != e0
        # the scalar terms s_n and s_(n + omega/p) differ for some n < size
        gamma = e0
        differs = False
        for _ in range(size):
            differs |= gamma[0] != shifted[0]
            gamma = [sum(a * g for a, g in zip(row, gamma)) % m for row in matrix]
            shifted = [sum(a * g for a, g in zip(row, shifted)) % m for row in matrix]
        assert differs, p


def test_period_search_budget_exits_2():
    # 77 states pass the work budget; one state and a period beyond 2^32
    # pass the baby-step table
    for argv, name, bound in (
        (["3", "40", "--mod", "5"], "(k=3, u=40, m=5)", "PERIOD_SEARCH_BUDGET"),
        (
            ["3", "2", "--mod", "1000000000000037", "--b", "3,fill=3"],
            "(k=3, u=2, m=1000000000000037)",
            "PERIOD_TABLE_LIMIT",
        ),
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["period", *argv])
        assert code == 2 and not out.getvalue()
        assert err.getvalue().startswith(f"error: period search for {name}")
        assert "stopped at its budget" in err.getvalue()
        assert bound in err.getvalue()


def test_a_first_round_past_the_budget_names_it(monkeypatch):
    # (3, 12) has 10 states: round 0 costs (1 + 10) * 10^2 multiply-adds
    monkeypatch.setattr(periodicity, "PERIOD_SEARCH_BUDGET", 1099)
    with pytest.raises(TooLargeError) as caught:
        detect_eventual_period(3, 12, m=5)
    message = str(caught.value)
    assert "PERIOD_SEARCH_BUDGET = 1099" in message and "among 10 states" in message
    assert "no round fits" in message and "up to 0" not in message
    # round 0 fits and finds no omega <= 1; round 1 costs (2 + 10) * 10^2
    monkeypatch.setattr(periodicity, "PERIOD_SEARCH_BUDGET", 1100)
    with pytest.raises(TooLargeError, match="among 10 states: no vector period up to 1$"):
        detect_eventual_period(3, 12, m=5)


def test_detect_report_json():
    report = detect_eventual_period(3, 4, m=2)
    data = report._asdict()
    assert set(data) == {
        "preperiod",
        "vector_period",
        "scalar_period",
        "modulus",
        "verified_horizon",
        "certificate",
    }
    assert data["modulus"] == 2


def test_detect_bad_modulus():
    with pytest.raises(ValueError):
        detect_eventual_period(3, 4, m=1)


def test_entrywise_divisibility():
    w = WeightAssignment(b_prefix=(1, 0, 0, 0), b_fill=0)
    assert check_entrywise_divisibility(w, 2, 3) == (1, 1)
    assert check_entrywise_divisibility(ALL_ONES, 2, 3) is None
    w = WeightAssignment(c_prefix=(1, 4, 8, 12), c_fill=4)
    assert check_entrywise_divisibility(w, 4, 2) == (2, 2)


def test_pairwise_product_divisibility():
    w = WeightAssignment(b_prefix=(1, 2, 2, 2, 2, 2, 2, 2), b_fill=2)
    assert check_pairwise_product_divisibility(w, 4, 2) == 1
    assert check_pairwise_product_divisibility(ALL_ONES, 4, 2) is None
    w = WeightAssignment(b_prefix=(), b_fill=3)
    assert check_pairwise_product_divisibility(w, 3, 2) == 0


def test_unbounded_mod_with_entrywise_certificate():
    w = WeightAssignment(b_prefix=(1, 0), b_fill=0)
    for n in range(4):
        value, cert = unbounded_sswcn_mod(3, n, w, 2)
        assert cert.kind == "entrywise" and cert.bound == 2
        assert value == sswcn_brute(3, n).evaluate(w, 2) == 1


def test_unbounded_mod_with_pairwise_certificate():
    w = WeightAssignment(b_prefix=(1, 2), b_fill=2)
    for n in range(4):
        value, cert = unbounded_sswcn_mod(2, n, w, 4)
        assert cert.kind == "pairwise-product" and cert.bound == 1 + 2 * 2 - 1
        assert value == sswcn_brute(2, n).evaluate(w, 4)


def window_case(rng, kind, sequence):
    """A seeded (k, m, w, broken) whose weights satisfy *kind*'s hypothesis
    on a window of *sequence* ('b' or 'c') at a random u, and no other:
    every entry outside the window is a unit mod m.  *broken* has units in
    the window too, so it satisfies no hypothesis."""
    k, u = rng.choice((2, 3, 4)), rng.randint(1, 3)
    p = rng.choice((2, 3))
    m = p * p if kind == "pairwise-product" else rng.choice((2, 3, 4, 6))
    pool = [x for x in range(1, 3 * m) if x % p and x % m]

    def units(length):
        return [rng.choice(pool) for _ in range(length)]

    b, c, fill = units(u + 2 * k), units(u + 2 * k), units(2)
    broken = WeightAssignment(tuple(b), fill[0], tuple(c), fill[1])
    if kind == "pairwise-product":
        # multiples of p, never of p^2: each product of two is 0 mod m
        window, start, size = b, u, 2 * k
        multiples = [p * x for x in units(size)]
    else:
        window, start, size = (b, u, k) if sequence == "b" else (c, u - 1, k)
        multiples = [m * rng.randint(1, 3) for _ in range(size)]
    window[start : start + size] = multiples
    return k, m, WeightAssignment(tuple(b), fill[0], tuple(c), fill[1]), broken


def test_unbounded_mod_random_assignments_satisfying_entrywise(monkeypatch):
    rng = random.Random(99)
    for _ in range(3):
        base = random_assignment(rng, lo=-4, hi=4, length=2)
        # force b_2, b_3, ... divisible by the modulus
        w = WeightAssignment(
            b_prefix=base.b_prefix[:2], b_fill=0,
            c_prefix=base.c_prefix, c_fill=base.c_fill,
        )
        for k in (2, 3):
            for n in (1, 2, 3):
                value, cert = unbounded_sswcn_mod(k, n, w, 3)
                assert cert.kind == "entrywise"
                assert value == sswcn_brute(k, n).evaluate(w, 3)
    # the truncation theorem at n >= 4S, where the bounded count takes the
    # recurrence route; the lattice DP covers the whole box, never T
    searches = []
    search = linrec.minimal_recurrence

    def recorded(terms, size):
        searches.append(size)
        return search(terms, size)

    monkeypatch.setattr(linrec, "minimal_recurrence", recorded)
    cut = broken_differs = 0
    hypotheses = (("entrywise", "b", 1), ("entrywise", "c", 2), ("pairwise-product", "b", None))
    for kind, sequence, condition in hypotheses * 5:
        k, m, w, broken = window_case(rng, kind, sequence)
        bound = unbounded_sswcn_mod(k, 0, w, m)[1].bound
        n = 4 * len(build_state_space(k, bound)) + rng.randint(0, 4)
        searches.clear()
        value, cert = unbounded_sswcn_mod(k, n, w, m)
        assert (cert.kind, cert.condition) == (kind, condition), w
        assert len(searches) == 1, w
        assert value == sswcn_lattice_value(k, n, w, m), (k, m, w, n)
        cut += bounded_sswcn_dp(k, bound, n, w) != sswcn_lattice_value(k, n, w)
        # negative control: without the divisible window the cut shows
        truncated = bounded_sswcn_dp(k, bound, n, broken, m)
        broken_differs += truncated != sswcn_lattice_value(k, n, broken, m)
    # the bound cuts paths of nonzero weight in most cases, and without the
    # window the cut changes the residue in several
    assert cut >= 12
    assert broken_differs >= 5


def test_unbounded_mod_lattice_fallback():
    value, cert = unbounded_sswcn_mod(3, 2, ALL_ONES, 5)
    assert cert.kind == "lattice"
    assert value == 5 % 5
    # far beyond brute force: the lattice DP mod m is exact at any n
    value, cert = unbounded_sswcn_mod(3, 30, ALL_ONES, 5)
    assert cert.kind == "lattice"
    assert value == catalan_number(3, 30) % 5
    # ... within the numeric lattice budget, checked before any walk
    with pytest.raises(TooLargeError, match="LATTICE_WORK_BUDGET"):
        unbounded_sswcn_mod(3, 3000, ALL_ONES, 5)
