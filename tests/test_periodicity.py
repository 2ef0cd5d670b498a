import random

import pytest

from sscat import (
    ALL_ONES,
    WeightAssignment,
    bounded_sequence_mod,
    catalan_number,
    check_entrywise_divisibility,
    check_pairwise_product_divisibility,
    detect_eventual_period,
    sswcn_brute,
    unbounded_sswcn_mod,
)
from tests.conftest import random_assignment


def test_detect_constant_sequence():
    # bound 2 for k=3 admits a single path with weight 1: constant ones
    report = detect_eventual_period(3, 2, m=7)
    assert report.scalar_period == 1
    assert bounded_sequence_mod(3, 2, 6, m=7) == [1, 1, 1, 1, 1, 1]


def test_detect_4_6_mod_3():
    # counts 1, 1, 2, 4, 8, ... give 1, 1, 2, 1, 2, ... mod 3
    report = detect_eventual_period(4, 6, m=3)
    assert bounded_sequence_mod(4, 6, 7, m=3) == [1, 1, 2, 1, 2, 1, 2]
    seq = bounded_sequence_mod(4, 6, report.verified_horizon + 1, m=3)
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
    assert bounded_sequence_mod(3, 4, horizon + 1, m=5) == oracle
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


def test_detect_report_json():
    report = detect_eventual_period(3, 4, m=2)
    data = report.to_json()
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


def test_unbounded_mod_random_assignments_satisfying_entrywise():
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


def test_unbounded_mod_lattice_fallback():
    value, cert = unbounded_sswcn_mod(3, 2, ALL_ONES, 5)
    assert cert.kind == "lattice"
    assert value == 5 % 5
    # far beyond brute force: the lattice DP mod m is exact at any n
    value, cert = unbounded_sswcn_mod(3, 30, ALL_ONES, 5)
    assert cert.kind == "lattice"
    assert value == catalan_number(3, 30) % 5
