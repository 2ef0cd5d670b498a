"""The lattice DP against brute-force path enumeration, its oracle.

Every (k, n) with 2 <= k <= 6 and at most ORACLE_PATHS balanced paths is
enumerated once; each path's height, peak count and weight come from the
per-path definitions (`ss_height_path`, `count_ss_peaks`, `sswt`), and the
bounded sums for every u are bucketed from the same pass.  The oracle
costs about 0.1 ms per path, so the 1e5 limit keeps this file near a
minute.
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from sscat import (
    WeightPolynomial,
    catalan_number,
    count_ss_peaks,
    enumerate_paths,
    height_histogram,
    max_path_height,
    peak_histogram,
    ss_height_path,
    sswcn_lattice,
    sswcn_lattice_value,
    sswt,
    stat_histograms,
    verify_min_u_formulas,
)
from sscat.errors import TooLargeError
from sscat.paths import ballot_successors
from tests.conftest import random_assignment

ORACLE_PATHS = 10**5

SIZES = [
    (k, n)
    for k in range(2, 7)
    for n in range(12)
    if catalan_number(k, n) <= ORACLE_PATHS
]


@lru_cache(maxsize=None)
def oracle(k, n):
    """Per-height weight sums and the two histograms, by enumeration."""
    by_height: dict[int, WeightPolynomial] = {}
    heights, peaks = Counter(), Counter()
    for path in enumerate_paths(k, n):
        h = ss_height_path(path)
        heights[h] += 1
        peaks[count_ss_peaks(path)] += 1
        by_height.setdefault(h, WeightPolynomial()).add_monomial(sswt(path))
    return by_height, dict(heights), dict(peaks)


def test_ballot_successors():
    assert ballot_successors((0, 0, 0), (2, 2, 2)) == [1]
    assert ballot_successors((2, 1, 0), (2, 2, 2)) == [2, 3]
    assert ballot_successors((2, 2, 2), (2, 2, 2)) == []
    assert ballot_successors([1, 1, 0, 0], (3, 3, 3, 3)) == [1, 3]


@pytest.mark.parametrize("k,n", SIZES)
def test_histograms_match_enumeration(k, n):
    _, heights, peaks = oracle(k, n)
    assert height_histogram(k, n) == heights
    assert peak_histogram(k, n) == peaks
    assert stat_histograms(k, n) == (heights, peaks)


@pytest.mark.parametrize("k,n", SIZES)
def test_symbolic_matches_enumeration(k, n):
    by_height, _, _ = oracle(k, n)
    total = WeightPolynomial()
    for poly in by_height.values():
        total = total + poly
    assert sswcn_lattice(k, n) == total


@pytest.mark.parametrize("k,n", SIZES)
def test_bounded_symbolic_matches_enumeration_for_every_u(k, n):
    by_height, _, _ = oracle(k, n)
    below = WeightPolynomial()
    for u in range(-1, max_path_height(k, n) + 2):
        below = below + by_height.get(u, WeightPolynomial())
        assert sswcn_lattice(k, n, u) == below, u


def test_numeric_matches_symbolic():
    rng = random.Random(11)
    for k, n in ((2, 5), (3, 4), (4, 3)):
        poly = sswcn_lattice(k, n)
        for _ in range(3):
            w = random_assignment(rng)
            assert sswcn_lattice_value(k, n, w) == poly.evaluate(w)
            assert sswcn_lattice_value(k, n, w, 97) == poly.evaluate(w, 97)


def test_zero_length_histograms():
    assert stat_histograms(3, 0) == ({0: 1}, {0: 1})


def test_lattice_needs_nonnegative_n():
    with pytest.raises(ValueError):
        height_histogram(3, -1)
    with pytest.raises(ValueError):
        sswcn_lattice_value(3, -1)


def test_path_cap_applies_only_without_a_bound():
    with pytest.raises(TooLargeError):
        sswcn_lattice(2, 16)
    # (3, 30) has far more than DEFAULT_PATH_CAP paths; at u <= 3 only one.
    assert verify_min_u_formulas(3, 30).checks[-1] == "(k=3, u=3, n=30) = B0^30"
