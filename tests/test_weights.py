import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
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
    sswcn_lattice,
    sswt,
)
from sscat.paths import StepKind
from sscat.weights import TagFormat, tag_polynomial, weight_step
from tests.conftest import json_document


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
    assert WeightMonomial().text() == "1"
    w = WeightAssignment(b_prefix=(2, 0, 3), c_prefix=(5,), c_fill=7)
    assert m1.evaluate(w) == 2 * 3 * 7
    assert m1.evaluate(w, modulus=5) == (2 * 3 * 7) % 5


def test_drop_c_sums_the_terms_of_each_b_block():
    merged = WeightMonomial.from_indices([2, 0, 2], [4, 2, 0])
    b_only = WeightMonomial.from_indices([0, 2, 2])
    assert WeightPolynomial({merged: 2, b_only: 1}).drop_c().text() == "3*B0*B2^2"
    assert WeightPolynomial({merged: 2, b_only: -2}).drop_c().is_zero()
    assert WeightPolynomial().drop_c().is_zero()


def test_weight_assignment_fill():
    w = WeightAssignment(b_prefix=(1, 0), b_fill=9, c_prefix=(), c_fill=4)
    assert [w.b(i) for i in range(4)] == [1, 0, 9, 9]
    assert w.c(0) == 4 and w.c(10) == 4
    assert ALL_ONES.b(100) == 1 and ALL_ONES.c(100) == 1


def _poly(terms):
    summed = Counter()
    for (b, c), coeff in terms:
        summed[WeightMonomial.from_indices(b, c)] += coeff
    return WeightPolynomial(summed)


monomials = st.tuples(
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
)
polys = st.lists(
    st.tuples(monomials, st.integers(-9, 9)), max_size=4
).map(_poly)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_polynomial_evaluation_is_ring_morphism(p, q):
    rng = random.Random(7)
    w = WeightAssignment(
        b_prefix=tuple(rng.randint(-3, 3) for _ in range(5)),
        c_prefix=tuple(rng.randint(-3, 3) for _ in range(5)),
    )
    summed = Counter(p.terms)
    summed.update(q.terms)  # adds coefficients, negative ones too
    total = WeightPolynomial(summed)
    assert 0 not in total.terms.values()  # cancelled terms are dropped
    assert total.evaluate(w) == p.evaluate(w) + q.evaluate(w)


def test_polynomial_text():
    p = _poly([((([0], [])), 1), ((([2], [])), -1), (((), ()), 3)])
    assert p.text() == "3 + B0 - B2"
    assert WeightPolynomial().text() == "0"


@pytest.mark.parametrize("kind", list(StepKind))
def test_weight_step_takes_b_at_an_up_steps_start_else_c_at_the_end(kind):
    g, g2 = 3, 5
    fmt = TagFormat.for_walk(g2 + 1, 3)
    step = weight_step(fmt)
    vector = {0: 2}  # twice the monomial 1
    for args in [(kind, g, g2), (kind, g, g2), (StepKind.UP, 1, 4)]:
        vector = dict(step(vector, *args))
    b, c = ([g, g], []) if kind is StepKind.UP else ([], [g2, g2])
    expected = WeightMonomial.from_indices(b + [1], c)
    assert tag_polynomial(vector, fmt) == WeightPolynomial({expected: 2})


@pytest.mark.parametrize("n", [127, 254, 255, 256, 300])
def test_exponents_that_fill_or_cross_a_byte(n):
    # At k = 2 and u = 1 the one path is (1, 2)^n, of weight B0^n * C0^n.
    # A walk of 2n steps takes 2-byte slots from n = 128 on.
    assert TagFormat.for_walk(2, 2 * n).width == (1 if n < 128 else 2)
    poly = sswcn_lattice(2, n, 1)
    assert poly.text() == f"B0^{n}*C0^{n}"
    assert poly.evaluate(WeightAssignment(b_prefix=(2,), c_prefix=(3,))) == 6**n
    assert poly == WeightPolynomial({WeightMonomial(((0, n),), ((0, n),)): 1})


def _shifted_pairs(fmt, block):
    """The nonzero slots of *block*, each read by shifting the whole block:
    the decode `TagFormat.pairs` replaced, quadratic in the block's width."""
    bits = 8 * fmt.width
    mask = (1 << bits) - 1
    found = []
    for i in range((block.bit_length() + bits - 1) // bits):
        if e := block >> bits * i & mask:
            found.append((i, e))
    return tuple(found)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_pairs_read_from_bytes_match_the_shift_decode(width):
    rng = random.Random(20261020 + width)
    top = (1 << 8 * width) - 1
    for heights in (1, 2, 7, 300, 5000):
        fmt = TagFormat(heights, width)
        for density in (0.0, 0.01, 0.5, 1.0):
            exponents = [rng.randint(1, top) if rng.random() < density else 0 for _ in range(heights)]
            block = sum(e << 8 * width * i for i, e in enumerate(exponents))
            assert fmt.pairs(block) == _shifted_pairs(fmt, block), (heights, density)
            assert fmt.pairs(block) == tuple((i, e) for i, e in enumerate(exponents) if e)


def _print_key(mono):
    return mono.b, mono.c[::-1]


def _text_by_sorted_terms(poly):
    """The print form by the tuple order of the monomials: B pairs, then
    C pairs read from the highest index down."""
    parts = []
    for mono, coeff in sorted(poly.terms.items(), key=lambda item: _print_key(item[0])):
        if mono == WeightMonomial():
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono.text())
        elif coeff == -1:
            parts.append(f"-{mono.text()}")
        else:
            parts.append(f"{coeff}*{mono.text()}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


blocks = st.dictionaries(st.integers(0, 9), st.integers(1, 300), max_size=4)
wide_polys = st.dictionaries(
    st.tuples(blocks, blocks).map(
        lambda bc: WeightMonomial(tuple(sorted(bc[0].items())), tuple(sorted(bc[1].items())))
    ),
    st.integers(-3, 3).filter(bool),
    max_size=8,
).map(WeightPolynomial)


@settings(max_examples=200, deadline=None)
@given(wide_polys)
def test_packed_print_order_is_the_order_of_sorted_terms(p):
    fmt, tags = TagFormat.packing(p.terms)
    assert {fmt.monomial(tag): coeff for tag, coeff in tags.items()} == p.terms
    packed = tag_polynomial(tags, fmt)
    expected = _text_by_sorted_terms(p)
    assert packed.text() == p.text() == expected
    assert packed == p


@settings(max_examples=200, deadline=None)
@given(wide_polys)
@example(WeightPolynomial({WeightMonomial(): -7}))
@example(WeightPolynomial())
def test_json_pieces_are_the_bytes_of_json_dumps(p):
    # framed as `sscat sswcn --symbolic --format json` frames them
    framed = '{\n  "k": 0,\n  "n": 0,\n  "polynomial": ' + "".join(p.json_pieces()) + "\n}"
    assert framed == json_document(0, 0, p)
