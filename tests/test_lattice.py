"""The lattice DP against brute-force path enumeration, its oracle.

Every (k, n) with 2 <= k <= 6 and at most ORACLE_PATHS balanced paths is
walked once by a depth-first search written here, with its own ballot
rule.  Each step updates the height, the running maximum, whether the
last step was up, the peak count and the B/C indices of the weight, so
no path is rebuilt to read them; the bounded sums for every u are
bucketed from the same pass.  On sizes with at most CHECKED_PATHS paths
the search's per-path values are checked against the per-path
definitions (`ss_height_path`, `count_ss_peaks`, `sswt`).
"""

import random
from collections import Counter
from functools import lru_cache

import pytest

from sscat import (
    BallotPath,
    WeightMonomial,
    catalan_number,
    count_ss_peaks,
    max_path_height,
    ss_height_path,
    ss_height_point,
    sswcn_lattice,
    sswcn_lattice_value,
    sswt,
    stat_histograms,
    verify_min_u_formulas,
)
from sscat.backend import height_histograms, peak_histograms
from sscat.errors import TooLargeError
from sscat.paths import (
    StepKind,
    ballot_successors,
    height_coefficients,
    lattice_layers,
    step_class,
)
from tests.conftest import random_assignment

ORACLE_PATHS = 10**5
CHECKED_PATHS = 1000

SIZES = [
    (k, n)
    for k in range(2, 7)
    for n in range(12)
    if catalan_number(k, n) <= ORACLE_PATHS
]


def walk(k, n, visit):
    """Call visit(steps, height, peaks, b_indices, c_indices) once for each
    balanced ballot path of length k*n, depth first, with the path's
    height, peak count and weight indices."""
    # the height gained by a step in each direction, from the point height
    rise = [ss_height_point(tuple(int(i == d) for i in range(k))) for d in range(k)]
    up, down_from = k // 2, (k + 1) // 2 + 1
    x, steps, b, c = [0] * k, [], [], []

    def step(height, top, last_up, peaks):
        if len(steps) == k * n:
            visit(steps, top, peaks, b, c)
            return
        for d in range(1, k + 1):
            # x + e_d stays a ballot point inside the n-box
            if x[d - 1] >= (n if d == 1 else x[d - 2]):
                continue
            after = height + rise[d - 1]
            x[d - 1] += 1
            steps.append(d)
            indices, index = (b, height) if d <= up else (c, after)
            indices.append(index)
            step(after, max(top, after), d <= up, peaks + (last_up and d >= down_from))
            indices.pop()
            steps.pop()
            x[d - 1] -= 1

    step(0, 0, False, 0)


@lru_cache(maxsize=None)
def oracle(k, n):
    """Per-height weight sums and the two histograms, by enumeration."""
    by_height: dict[int, Counter] = {}
    heights, peaks = Counter(), Counter()

    def visit(steps, height, peak_count, b, c):
        heights[height] += 1
        peaks[peak_count] += 1
        by_height.setdefault(height, Counter())[WeightMonomial.from_indices(b, c)] += 1

    walk(k, n, visit)
    return by_height, dict(heights), dict(peaks)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k, n in SIZES if catalan_number(k, n) <= CHECKED_PATHS]
)
def test_walk_matches_the_per_path_definitions(k, n):
    seen = []

    def visit(steps, height, peaks, b, c):
        path = BallotPath(k, tuple(steps))
        assert height == ss_height_path(path)
        assert peaks == count_ss_peaks(path)
        assert WeightMonomial.from_indices(b, c) == sswt(path)
        seen.append(path.steps)

    walk(k, n, visit)
    assert len(seen) == len(set(seen)) == catalan_number(k, n)


def test_ballot_successors():
    assert ballot_successors((0, 0, 0), (2, 2, 2)) == [1]
    assert ballot_successors((2, 1, 0), (2, 2, 2)) == [2, 3]
    assert ballot_successors((2, 2, 2), (2, 2, 2)) == []
    assert ballot_successors([1, 1, 0, 0], (3, 3, 3, 3)) == [1, 3]


@pytest.mark.parametrize("k,n", SIZES)
def test_histograms_match_enumeration(k, n):
    _, heights, peaks = oracle(k, n)
    assert height_histograms(k, n)[n] == heights
    assert peak_histograms(k, n)[n] == peaks
    assert stat_histograms(k, n) == (heights, peaks)


@pytest.mark.parametrize("k,n", SIZES)
def test_symbolic_matches_enumeration(k, n):
    by_height, _, _ = oracle(k, n)
    total = Counter()
    for monomials in by_height.values():
        total.update(monomials)
    assert sswcn_lattice(k, n).terms == total


@pytest.mark.parametrize("k,n", SIZES)
def test_bounded_symbolic_matches_enumeration_for_every_u(k, n):
    by_height, _, _ = oracle(k, n)
    below = Counter()
    for u in range(-1, max_path_height(k, n) + 2):
        below.update(by_height.get(u, {}))
        assert sswcn_lattice(k, n, u).terms == below, u


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
        height_histograms(3, -1)
    with pytest.raises(ValueError):
        sswcn_lattice_value(3, -1)


def test_path_cap_applies_only_without_a_bound():
    with pytest.raises(TooLargeError):
        sswcn_lattice(2, 16)
    # (3, 30) has far more paths than the limit admits; at u <= 3 only one.
    assert verify_min_u_formulas(3, 30).checks[-1] == "(k=3, u=3, n=30) = B0^30"


@pytest.mark.parametrize("k", range(2, 8))
def test_lattice_walk_hands_each_step_its_kind(k):
    # In the box [0, 1]^k the one balanced walk is 1, 2, ..., k, a step a layer.
    seen = []

    def step(vector, kind, g, g2):
        seen.append((g2 - g, kind))
        return vector.items()

    layers = list(lattice_layers(k, (0,) * k, (1,) * k, {None: 1}, step))
    assert len(layers) == k + 1 and layers[k] == {(1,) * k: (0, {None: 1})}
    rise = height_coefficients(k)
    assert seen == [(rise[d - 1], step_class(k, d)) for d in range(1, k + 1)]
    assert (StepKind.NEUTRAL in [kind for _, kind in seen]) == (k % 2 == 1)
