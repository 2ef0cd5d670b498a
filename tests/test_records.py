"""The value records compare, hash, refuse assignment and validate as
frozen records do, whichever class implements them."""

import pytest

from sscat import (
    BallotPath,
    InvalidDirectionError,
    InvalidPathError,
    InvalidTableauError,
    StateSpace,
    Tableau,
    WeightAssignment,
    WeightMonomial,
    detect_eventual_period,
)
from sscat.counting import _transfer_matrix


@pytest.mark.parametrize(
    "make,other",
    [
        (lambda: BallotPath(3, [1, 2, 3]), lambda: BallotPath(3, (1, 2, 3, 1, 2, 3))),
        (lambda: Tableau([[1, 2], [3, 4]]), lambda: Tableau(((1, 3), (2, 4)))),
        (lambda: WeightMonomial.from_indices([0, 2], [1]), lambda: WeightMonomial()),
        (lambda: WeightAssignment((2,), 3), lambda: WeightAssignment((2,), 3, (1,))),
    ],
    ids=["BallotPath", "Tableau", "WeightMonomial", "WeightAssignment"],
)
def test_equal_and_hashed_by_value(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other() and not a == other()
    assert {a: "first", b: "second"} == {make(): "second"}
    assert len({a, b, other()}) == 2


def test_fields_are_read_only():
    report = detect_eventual_period(3, 4, m=2)
    for record, field, value in (
        (BallotPath(3, (1, 2, 3)), "steps", (1, 1, 1)),
        (BallotPath(3, (1, 2, 3)), "k", 4),
        (Tableau(((1, 2), (3, 4))), "rows", ((1, 3), (2, 4))),
        (report, "preperiod", 7),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) != value


def test_ballot_path_normalises_and_validates():
    path = BallotPath(3, [1, 2, 3])
    assert path.steps == (1, 2, 3) and type(path.steps) is tuple
    assert path.origin == (0, 0, 0)
    assert BallotPath(3, [2], origin=[1, 0, 0]).origin == (1, 0, 0)
    with pytest.raises(InvalidPathError, match="origin .* is not a ballot point"):
        BallotPath(3, (1,), origin=(0, 1, 0))
    with pytest.raises(InvalidPathError, match="origin has 2 coordinates"):
        BallotPath(3, (1,), origin=(1, 0))
    with pytest.raises(InvalidDirectionError, match="direction 4 not in 1..3"):
        BallotPath(3, (1, 4))
    with pytest.raises(InvalidPathError, match="ballot property"):
        BallotPath(3, (2,))
    assert Tableau([[1, 2], [3]]).rows == ((1, 2), (3,))
    with pytest.raises(InvalidTableauError):
        Tableau([[1, 3], [2, 2]])


def test_state_space_length_is_its_number_of_states():
    space = _transfer_matrix(3, 5).space
    assert len(space) == len(space.states) > 1
    copy = StateSpace(space.k, space.u, space.states)
    assert copy is not space and copy == space and hash(copy) == hash(space)
    assert repr(copy) == f"StateSpace(k=3, u=5, states={space.states!r})"


def test_period_report_fields_in_order():
    report = detect_eventual_period(3, 4, m=2)
    assert list(report._asdict()) == [
        "preperiod",
        "vector_period",
        "scalar_period",
        "modulus",
        "verified_horizon",
        "certificate",
    ]
    assert report.certificate == "vector-orbit cycle"
