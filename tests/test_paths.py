import itertools

import pytest

from sscat import (
    BallotPath,
    InvalidDimensionError,
    InvalidDirectionError,
    InvalidEndpointError,
    InvalidPathError,
    OutOfBoxError,
    catalan_number,
    enumerate_paths,
    enumerate_sub_paths,
    is_ballot_point,
    reflect_point,
    reverse_complement,
    ss_height_path,
    ss_height_point,
    step_class,
)
from sscat import paths
from sscat.counting import max_path_height
from sscat.paths import StepKind, ballot_successors, ballot_walks, height_coefficients


def test_height_coefficients():
    assert height_coefficients(2) == (1, -1)
    assert height_coefficients(3) == (2, 0, -2)
    assert height_coefficients(4) == (3, 1, -1, -3)
    assert height_coefficients(5) == (4, 2, 0, -2, -4)
    with pytest.raises(InvalidDimensionError):
        height_coefficients(1)


def test_step_taxonomy():
    assert step_class(3, 1) is StepKind.UP
    assert step_class(3, 2) is StepKind.NEUTRAL
    assert step_class(3, 3) is StepKind.DOWN
    assert [step_class(4, d) for d in range(1, 5)] == [
        StepKind.UP,
        StepKind.UP,
        StepKind.DOWN,
        StepKind.DOWN,
    ]
    with pytest.raises(InvalidDirectionError):
        step_class(3, 4)
    with pytest.raises(InvalidDimensionError):
        step_class(1, 1)


def test_is_ballot_point():
    assert is_ballot_point((3, 2, 2))
    assert is_ballot_point((0, 0))
    assert not is_ballot_point((1, 2, 0))
    assert not is_ballot_point((1, 0, -1))


def test_path_validation():
    BallotPath(3, (1, 2, 3))
    with pytest.raises(InvalidPathError):
        BallotPath(3, (2,))  # e2 before e1
    with pytest.raises(InvalidDirectionError):
        BallotPath(3, (1, 4))
    with pytest.raises(InvalidPathError):
        BallotPath(3, (), origin=(0, 1, 0))
    with pytest.raises(InvalidDimensionError):
        BallotPath(1, (1,))


def test_points_and_endpoint():
    p = BallotPath(3, (1, 1, 2, 2, 3, 3))
    assert list(p.points())[0] == (0, 0, 0)
    assert p.endpoint == (2, 2, 2)
    assert p.is_balanced()
    assert not BallotPath(3, (1, 2)).is_balanced()
    assert not BallotPath(3, (1,), origin=(1, 1, 1)).is_balanced()


def test_enumerate_matches_catalan_counts():
    for k in (2, 3, 4):
        for n in range(4):
            assert sum(1 for _ in enumerate_paths(k, n)) == catalan_number(k, n)


def test_enumerate_3_2_explicit():
    expected = {
        (1, 1, 2, 2, 3, 3),
        (1, 2, 1, 2, 3, 3),
        (1, 1, 2, 3, 2, 3),
        (1, 2, 3, 1, 2, 3),
        (1, 2, 1, 3, 2, 3),
    }
    assert set(enumerate_paths(3, 2)) == expected


def test_enumerate_with_height_bound():
    for k, n, u in ((3, 3, 4), (4, 2, 6), (2, 4, 2)):
        bounded = set(enumerate_paths(k, n, height_bound=u))
        filtered = {
            steps
            for steps in enumerate_paths(k, n)
            if ss_height_path(BallotPath(k, steps)) <= u
        }
        assert bounded == filtered


def test_enumerate_sub_paths():
    subs = list(enumerate_sub_paths(3, (2, 1, 0), (2, 2, 2)))
    assert set(subs) == {(2, 3, 3), (3, 2, 3)}
    for steps in subs:
        assert BallotPath(3, steps, (2, 1, 0)).endpoint == (2, 2, 2)
    with pytest.raises(InvalidEndpointError):
        list(enumerate_sub_paths(3, (1, 2, 0), (2, 2, 2)))
    with pytest.raises(InvalidEndpointError):
        list(enumerate_sub_paths(3, (2, 2, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        list(enumerate_sub_paths(3, (0, 0, 0), (2, 2, 2), height_bound=-1))


def test_enumerators_check_arguments_when_called():
    # No `next`: the call itself must raise, before any walk is taken.
    with pytest.raises(InvalidDimensionError):
        enumerate_paths(1, 2)
    with pytest.raises(ValueError):
        enumerate_paths(3, -1)
    with pytest.raises(ValueError):
        enumerate_paths(3, 2, height_bound=-1)
    with pytest.raises(InvalidEndpointError):
        enumerate_sub_paths(3, (1, 2, 0), (2, 2, 2))


def test_reflect_point():
    assert reflect_point(3, 2, (2, 1, 0)) == (2, 1, 0)
    assert reflect_point(2, 3, (3, 1)) == (2, 0)
    for p in [(0, 0, 0), (2, 1, 0), (1, 1, 1), (2, 2, 1)]:
        assert reflect_point(3, 2, reflect_point(3, 2, p)) == p
        assert ss_height_point(reflect_point(3, 2, p)) == ss_height_point(p)
    with pytest.raises(OutOfBoxError):
        reflect_point(3, 2, (3, 0, 0))
    with pytest.raises(OutOfBoxError):
        reflect_point(3, 2, (0, 0, -1))


def test_reverse_complement_involution_and_height():
    for k, n in ((2, 3), (3, 2), (4, 2)):
        for steps in enumerate_paths(k, n):
            p = BallotPath(k, steps)
            q = reverse_complement(p)
            assert q.is_balanced()
            assert ss_height_path(q) == ss_height_path(p)
            assert reverse_complement(q).steps == steps
            reflected = [reflect_point(k, n, x) for x in p.points()]
            assert list(q.points()) == reflected[::-1]
    with pytest.raises(InvalidPathError):
        reverse_complement(BallotPath(3, (1, 2)))


def plain_dfs(k, start, top, height_bound=None):
    """The walker's oracle: the same depth-first walks, one step at a time,
    trying directions 1..k at each point, with no suffix lists."""
    coeffs = height_coefficients(k)
    g0 = ss_height_point(start)
    if height_bound is not None and g0 > height_bound:
        return
    length = sum(top) - sum(start)
    x = list(start)
    steps = []
    # Moves still to try, the next one last, as (direction, height after
    # it); a negative direction takes that step back.
    todo = [(0, g0)]
    while todo:
        d, g = todo.pop()
        if d < 0:
            x[-d - 1] -= 1
            steps.pop()
            continue
        if d:
            x[d - 1] += 1
            steps.append(d)
            todo.append((-d, g))
        if len(steps) == length:
            yield tuple(steps)
            continue
        for e in reversed(ballot_successors(x, top)):
            g2 = g + coeffs[e - 1]
            if height_bound is None or g2 <= height_bound:
                todo.append((e, g2))


@pytest.mark.parametrize("suffix_steps", [0, paths.SUFFIX_STEPS, 10**9])
@pytest.mark.parametrize("k,n", [(2, 6), (3, 4), (4, 3), (5, 3), (6, 2)])
def test_walker_yields_the_plain_dfs_walks_in_order(monkeypatch, suffix_steps, k, n):
    # No suffix lists but the top's, the default, and one list at the start.
    monkeypatch.setattr(paths, "SUFFIX_STEPS", suffix_steps)
    top = (n,) * k
    starts = [p for p in itertools.product(range(n + 1), repeat=k) if is_ballot_point(p)]
    for start in starts:
        for u in [None, *range(max_path_height(k, n) + 2)]:
            expected = list(plain_dfs(k, start, top, u))
            assert list(ballot_walks(k, start, top, u)) == expected, (start, u)


def test_a_long_walk_with_one_branch():
    # Under u = 2 at k = 3 the one path is (1, 2, 3)^n; only points within
    # SUFFIX_STEPS of the top keep their suffixes.
    assert list(enumerate_paths(3, 3000, height_bound=2)) == [(1, 2, 3) * 3000]
