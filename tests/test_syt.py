import pytest

from sscat import (
    BallotPath,
    InvalidPathError,
    InvalidTableauError,
    Tableau,
    enumerate_paths,
    path_to_tableau,
    subtableau,
    tableau_to_path,
    tally,
)

THREE_ROW_TABLEAU = Tableau(((1, 2, 4, 7), (3, 5, 6, 8), (9, 10, 11, 12)))


def test_tableau_validation():
    Tableau(((1, 2), (3,)))
    with pytest.raises(InvalidTableauError):
        Tableau(((1,), (2, 3)))  # row lengths increase
    with pytest.raises(InvalidTableauError):
        Tableau(((1, 3), (2, 2)))  # duplicate entry
    with pytest.raises(InvalidTableauError):
        Tableau(((2, 1),))  # row not increasing
    with pytest.raises(InvalidTableauError):
        Tableau(((2, 3), (1, 4)))  # column not increasing
    with pytest.raises(InvalidTableauError):
        Tableau(((1, 2), (3, 5)))  # entries not 1..N


def test_shape_size_row_of_render():
    t = THREE_ROW_TABLEAU
    assert t.shape == (4, 4, 4)
    assert t.size == 12
    assert t.render().splitlines()[0] == "1 2 4 7"
    data = t.to_json()
    assert data == {
        "shape": [4, 4, 4],
        "rows": [[1, 2, 4, 7], [3, 5, 6, 8], [9, 10, 11, 12]],
    }
    assert Tableau(tuple(tuple(r) for r in data["rows"])) == t


def test_three_row_tableau_bijection_and_tally():
    path = tableau_to_path(THREE_ROW_TABLEAU)
    assert path.steps == (1, 1, 2, 1, 2, 2, 1, 2, 3, 3, 3, 3)
    assert path_to_tableau(path) == THREE_ROW_TABLEAU
    # descents at i = 2, 4, 8, 9 (entry i+1 drops to a lower row);
    # the remaining seven positions are ascents, so the tally is 7 - 4
    assert tally(THREE_ROW_TABLEAU) == 3


def test_subtableau_matches_intermediate_points():
    t = THREE_ROW_TABLEAU
    assert subtableau(t, 3) == Tableau(((1, 2), (3,)))
    assert subtableau(t, 0) == Tableau(())
    assert subtableau(t, t.size) == t
    path = tableau_to_path(t)
    points = list(path.points())
    for n_prime in range(t.size + 1):
        sub = subtableau(t, n_prime)
        point = points[n_prime]
        coords = tuple(x for x in point if x)
        assert sub.shape == coords
    with pytest.raises(InvalidTableauError):
        subtableau(t, 13)


def test_round_trip_all_small_paths():
    for n in range(4):
        for steps in enumerate_paths(3, n):
            t = path_to_tableau(BallotPath(3, steps))
            assert t.shape == (n, n, n)
            assert tableau_to_path(t).steps == steps


def test_bijection_requires_balanced_and_rectangular():
    with pytest.raises(InvalidPathError):
        path_to_tableau(BallotPath(3, (1, 2)))
    with pytest.raises(InvalidTableauError):
        tableau_to_path(Tableau(((1, 2), (3,))))


def test_single_row_and_column_tallies():
    for n in range(2, 6):
        assert tally(Tableau((tuple(range(1, n + 1)),))) == n - 1
    for k in range(2, 6):
        assert tally(Tableau(tuple((i,) for i in range(1, k + 1)))) == -(k - 1)
    with pytest.raises(InvalidTableauError):
        tally(Tableau(()))


def test_ascents_plus_descents():
    for n in range(1, 4):
        for steps in enumerate_paths(3, n):
            t = path_to_tableau(BallotPath(3, steps))
            row_by_entry = {v: j for j, r in enumerate(t.rows) for v in r}
            descents = sum(
                1 for i in range(1, t.size) if row_by_entry[i + 1] > row_by_entry[i]
            )
            ascents = t.size - 1 - descents
            assert tally(t) == ascents - descents
            assert ascents + descents == t.size - 1
