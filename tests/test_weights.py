import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscat import (
    ALL_ONES,
    BallotPath,
    InvalidDimensionError,
    WeightAssignment,
    WeightMonomial,
    WeightPolynomial,
    count_ss_peaks,
    legacy_height_point,
    legacy_wt,
    ss_height_path,
    ss_height_point,
    sswt,
)
from sscat.paths import StepKind
from sscat.weights import MONOMIAL_ONE, tag_polynomial, weight_step


def test_point_heights():
    assert ss_height_point((1, 0, 0)) == 2
    assert ss_height_point((1, 1, 1)) == 0
    assert ss_height_point((2, 1, 0)) == 4
    assert ss_height_point((1, 1, 0, 0)) == 4
    assert legacy_height_point((1, 0, 0)) == 2
    assert legacy_height_point((1, 1, 0)) == 1
    with pytest.raises(InvalidDimensionError):
        ss_height_point((1,))


def test_path_height():
    assert ss_height_path(BallotPath(3, ())) == 0
    assert ss_height_path(BallotPath(3, (1, 2, 3))) == 2
    assert ss_height_path(BallotPath(3, (1, 1, 2, 2, 3, 3))) == 4


def test_count_ss_peaks():
    # one up-step immediately followed by a down-step per peak
    assert count_ss_peaks(BallotPath(2, (1, 2, 1, 2))) == 2
    assert count_ss_peaks(BallotPath(3, (1, 2, 3))) == 0  # neutral between
    assert count_ss_peaks(BallotPath(4, (1, 1, 2, 3, 4, 2, 3, 4))) == 2
    assert count_ss_peaks(BallotPath(4, (1, 2, 3, 4))) == 1


FIVE_PATH_WEIGHTS = {
    (1, 1, 2, 2, 3, 3): "B0*B2*C4^2*C2*C0",
    (1, 2, 1, 2, 3, 3): "B0*B2*C4*C2^2*C0",
    (1, 1, 2, 3, 2, 3): "B0*B2*C4*C2^2*C0",
    (1, 2, 3, 1, 2, 3): "B0^2*C2^2*C0^2",
    (1, 2, 1, 3, 2, 3): "B0*B2*C2^3*C0",
}


def test_sswt_golden_paths():
    for steps, text in FIVE_PATH_WEIGHTS.items():
        assert sswt(BallotPath(3, steps)).text() == text


def test_sswt_up_steps_use_start_non_up_use_result():
    # 9-step path: up-steps contribute B at their start height, the
    # neutral and down steps contribute C at their result height
    path = BallotPath(3, (1, 1, 2, 1, 2, 3, 2, 3, 3))
    assert sswt(path).text() == "B0*B2*B4*C6*C4^3*C2*C0"


def test_sswt_nine_step_path():
    # three up-steps starting at heights 0, 2, 0; down/neutral steps
    # producing heights 2,2,2,2,0,0
    path = BallotPath(3, (1, 2, 1, 3, 2, 3, 1, 2, 3))
    assert sswt(path).text() == "B0^2*B2*C2^4*C0^2"


def test_legacy_wt():
    assert legacy_wt(BallotPath(3, (1, 1, 2, 2, 3, 3))).text() == "B0*B2"
    assert legacy_wt(BallotPath(3, (1, 2, 1, 2, 3, 3))).text() == "B0*B1"
    assert legacy_wt(BallotPath(4, (1, 2, 3, 4))).text() == "B0"


def test_monomial_algebra():
    m1 = WeightMonomial.from_indices([0, 2], [4])
    # repeated indices merge into exponents, each block sorted by index
    merged = WeightMonomial.from_indices([2, 0, 2], [4, 2, 0])
    assert merged.text() == "B0*B2^2*C4*C2*C0"
    assert merged.b == ((0, 1), (2, 2)) and merged.c == ((0, 1), (2, 1), (4, 1))
    assert merged.drop_c().text() == "B0*B2^2"
    assert WeightMonomial().text() == "1"
    w = WeightAssignment(b_prefix=(2, 0, 3), c_prefix=(5,), c_fill=7)
    assert m1.evaluate(w) == 2 * 3 * 7
    assert m1.evaluate(w, modulus=5) == (2 * 3 * 7) % 5


def test_weight_assignment_fill():
    w = WeightAssignment(b_prefix=(1, 0), b_fill=9, c_prefix=(), c_fill=4)
    assert [w.b(i) for i in range(4)] == [1, 0, 9, 9]
    assert w.c(0) == 4 and w.c(10) == 4
    assert ALL_ONES.b(100) == 1 and ALL_ONES.c(100) == 1


def _poly(terms):
    out = WeightPolynomial()
    for (b, c), coeff in terms:
        out.add_monomial(WeightMonomial.from_indices(b, c), coeff)
    return out


monomials = st.tuples(
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
)
polys = st.lists(
    st.tuples(monomials, st.integers(-9, 9)), max_size=4
).map(_poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_polynomial_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + WeightPolynomial() == p
    # cancelled terms are dropped, so p + (-p) is the empty polynomial
    negated = WeightPolynomial({m: -c for m, c in p.terms.items()})
    assert p + negated == WeightPolynomial()


@settings(max_examples=60, deadline=None)
@given(polys)
def test_polynomial_json_roundtrip(p):
    decoded = {
        WeightMonomial(
            tuple((int(i), e) for i, e in term["b"].items()),
            tuple((int(j), e) for j, e in term["c"].items()),
        ): int(term["coeff"])
        for term in p.to_json()
    }
    assert WeightPolynomial(decoded) == p
    assert list(_poly([(([2, 0, 2], [4]), 3), (([], []), -1)]).to_json()) == [
        {"coeff": "-1", "b": {}, "c": {}},
        {"coeff": "3", "b": {"0": 1, "2": 2}, "c": {"4": 1}},
    ]


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_polynomial_evaluation_is_ring_morphism(p, q):
    rng = random.Random(7)
    w = WeightAssignment(
        b_prefix=tuple(rng.randint(-3, 3) for _ in range(5)),
        c_prefix=tuple(rng.randint(-3, 3) for _ in range(5)),
    )
    assert (p + q).evaluate(w) == p.evaluate(w) + q.evaluate(w)


def test_polynomial_text():
    p = _poly([((([0], [])), 1), ((([2], [])), -1), (((), ()), 3)])
    assert p.text() == "3 + B0 - B2"
    assert WeightPolynomial().text() == "0"


@pytest.mark.parametrize("kind", list(StepKind))
def test_weight_step_takes_b_at_an_up_steps_start_else_c_at_the_end(kind):
    g, g2 = 3, 5
    vector = {MONOMIAL_ONE: 2}
    for step in [(kind, g, g2), (kind, g, g2), (StepKind.UP, 1, 4)]:
        vector = dict(weight_step(vector, *step))
    b, c = ([g, g], []) if kind is StepKind.UP else ([], [g2, g2])
    expected = WeightMonomial.from_indices(b + [1], c)
    assert tag_polynomial(vector) == WeightPolynomial({expected: 2})
