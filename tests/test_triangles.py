import json
import random
from collections import Counter

import pytest

from sscat import (
    FormulaViolationError,
    TooLargeError,
    TransferMatrix,
    WeightAssignment,
    bounded_sequence,
    catalan_number,
    height_triangle_row,
    max_path_height,
    min_path_height,
    narayana_row,
    run_verifiers,
    scan_power_of_two,
    verify_closed_4_6_and_5_8,
    verify_dprime_3_2n,
    verify_min_u_formulas,
    verify_narayana_one_peak,
    verify_recurrence_3_4,
    verify_rightmost_entries,
)
from sscat.cli import main
from sscat.paths import StepKind, lattice_diagonal, lattice_layers
from tests.conftest import random_assignment

# The bundled b-files A393573 (HEIGHT_ROWS_K3), A393594 (HEIGHT_ROWS_K4),
# A393571 (NARAYANA_ROWS_K4) and A393747 (NARAYANA_ROWS_K3) were generated by
# this package's own brute-force enumeration.  These rows pin regressions;
# they are not independent oracles.
HEIGHT_ROWS_K3 = {
    1: {2: 1},
    2: {2: 1, 4: 4},
    3: {2: 1, 4: 20, 6: 21},
    4: {2: 1, 4: 88, 6: 252, 8: 121},
    5: {2: 1, 4: 376, 6: 2354, 8: 2547, 10: 728},
}

HEIGHT_ROWS_K4 = {
    1: {4: 1},
    2: {4: 1, 6: 1, 7: 8, 8: 4},
    3: {4: 1, 6: 3, 7: 69, 8: 48, 9: 30, 10: 151, 11: 135, 12: 25},
    4: {
        4: 1, 6: 7, 7: 533, 8: 553, 9: 583, 10: 4299, 11: 5051,
        12: 1930, 13: 4288, 14: 4819, 15: 1764, 16: 196,
    },
}

NARAYANA_ROWS_K3 = {
    0: {0: 1},
    1: {0: 1},
    2: {0: 4, 1: 1},
    3: {0: 25, 1: 16, 2: 1},
    4: {0: 196, 1: 221, 2: 44, 3: 1},
    5: {0: 1764, 1: 2976, 2: 1161, 3: 104, 4: 1},
    6: {0: 17424, 1: 40105, 2: 24972, 3: 4786, 4: 228, 5: 1},
}

NARAYANA_ROWS_K4 = {
    0: {0: 1},
    1: {1: 1},
    2: {1: 4, 2: 9, 3: 1},
    3: {1: 25, 2: 175, 3: 216, 4: 45, 5: 1},
    4: {1: 196, 2: 2828, 3: 9285, 4: 9038, 5: 2514, 6: 162, 7: 1},
    5: {
        1: 1764, 2: 43508, 3: 274138, 4: 613545, 5: 533694,
        6: 176091, 7: 19541, 8: 522, 9: 1,
    },
}


def test_height_rows_k3_golden():
    for n, expected in HEIGHT_ROWS_K3.items():
        assert height_triangle_row(3, n).entries == expected


def test_height_rows_k4_golden():
    for n, expected in HEIGHT_ROWS_K4.items():
        assert height_triangle_row(4, n).entries == expected


def test_narayana_rows_golden():
    for n, expected in NARAYANA_ROWS_K3.items():
        assert narayana_row(3, n).entries == expected
    for n, expected in NARAYANA_ROWS_K4.items():
        assert narayana_row(4, n).entries == expected


def test_row_sums_are_catalan():
    for k in (2, 3, 4):
        for n in range(5):
            assert height_triangle_row(k, n).total() == catalan_number(k, n)
            assert narayana_row(k, n).total() == catalan_number(k, n)


def test_odd_k_height_rows_skip_odd_heights():
    for n in range(1, 5):
        assert all(u % 2 == 0 for u in height_triangle_row(3, n).entries)


def test_even_k_no_zero_peak_paths_for_positive_n():
    for n in range(1, 4):
        assert 0 not in narayana_row(4, n).entries
        assert 0 not in narayana_row(2, n).entries


def test_two_dimensional_narayana_is_classical():
    # classical Narayana numbers N(n, j) = C(n,j) C(n,j+1) / n, indexed
    # here by peak count j+1
    for n in range(1, 7):
        row = narayana_row(2, n).entries
        import math

        classical = {
            j + 1: math.comb(n, j) * math.comb(n, j + 1) // n
            for j in range(n)
            if math.comb(n, j) * math.comb(n, j + 1) // n
        }
        assert row == classical


def test_height_row_zero():
    row = height_triangle_row(3, 0)
    assert row.entries == {0: 1}


def test_row_json_and_csv(capsys):
    row = height_triangle_row(3, 2)
    data = row.to_json()
    assert data["entries"] == {"2": "1", "4": "4"}
    json.dumps(data)  # must be serializable
    assert main(["triangle", "height", "3", "--rows", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,n,stat,count"
    assert "3,2,2,1" in lines and "3,2,4,4" in lines


def test_verify_min_u_formulas():
    for k in (3, 4, 5):
        record = verify_min_u_formulas(k, 2)
        assert len(record.checks) == 2
    with pytest.raises(ValueError):
        verify_min_u_formulas(6, 2)


def test_verify_recurrence_3_4_with_random_assignments():
    rng = random.Random(41)
    assignments = [WeightAssignment()] + [random_assignment(rng) for _ in range(3)]
    record = verify_recurrence_3_4(8, assignments)
    assert len(record.checks) == len(assignments)


def test_verify_closed_forms():
    rng = random.Random(42)
    assignments = [WeightAssignment()] + [random_assignment(rng) for _ in range(3)]
    record = verify_closed_4_6_and_5_8(6, assignments)
    assert len(record.checks) == 2 * len(assignments)


def test_verify_rightmost_and_dprime():
    for k, n in ((2, 3), (3, 3), (4, 2)):
        verify_rightmost_entries(k, n)
    record = verify_dprime_3_2n(4)
    assert len(record.checks) == 4


def test_verify_narayana_one_peak():
    for k, n in ((2, 3), (4, 2)):
        verify_narayana_one_peak(k, n)
    with pytest.raises(ValueError):
        verify_narayana_one_peak(3, 2)


# The true histograms at (3, 2) are heights {2: 1, 4: 4} and peaks
# {0: 4, 1: 1}; rows 0 and 1 are heights {0: 1}, {2: 1} and peaks {0: 1},
# {0: 1}.  A count moved to a neighbouring height keeps the total, so only
# the survival walk can catch it; a wrong total is caught first by the
# Catalan number.  Each triangle asks `_histograms` for the rows 0..n of
# its own statistic only: any other kind raises KeyError here.
@pytest.mark.parametrize(
    "build, histograms, expected, actual",
    [
        (narayana_row, {"narayana": [{0: 1}, {0: 1}, {0: 1, 1: 3}]}, 5, 4),
        (height_triangle_row, {"height": [{0: 1}, {2: 1}, {2: 1, 4: 3}]}, 5, 4),
        (
            height_triangle_row,
            {"height": [{0: 1}, {2: 1}, {2: 1, 3: 1, 4: 3}]},
            {2: 1, 4: 4},
            {2: 1, 3: 1, 4: 3},
        ),
    ],
    ids=["narayana-total", "height-total", "height-moved-count"],
)
def test_each_row_checks_its_histogram(monkeypatch, build, histograms, expected, actual):
    from sscat import triangles

    monkeypatch.setattr(triangles, "_histograms", lambda kind, k, n: histograms[kind])
    with pytest.raises(FormulaViolationError) as excinfo:
        build(3, 2)
    assert excinfo.value.witness == (3, 2)
    assert excinfo.value.expected == expected and excinfo.value.actual == actual


@pytest.mark.parametrize(
    "kind, walks", [("height", 2), ("narayana", 1)], ids=["height", "narayana"]
)
def test_a_row_walks_the_lattice_once_per_statistic(monkeypatch, kind, walks):
    # Rows 0..6 are read off one walk of the box [0, 6]^k per statistic: a
    # height triangle walks once for its histograms and once, carrying
    # every height bound at once, for its checks; a Narayana one walks once.
    from sscat import paths, triangles

    walked = []
    original = paths.lattice_layers

    def spy(k, start, top, seed, step, height_bound=None):
        walked.append(top)
        return original(k, start, top, seed, step, height_bound)

    monkeypatch.setattr(paths, "lattice_layers", spy)
    triangles._histograms.cache_clear()
    rows = triangles.triangle_rows(kind, 3, range(7))
    assert [row.n for row in rows] == list(range(7))
    assert walked == [(6, 6, 6)] * walks


def _row_in_its_own_box(k, n, seed, step, height_bound=None):
    """Row n walked alone: the vector at the top corner of the box [0, n]^k."""
    *_, last = lattice_layers(k, (0,) * k, (n,) * k, seed, step, height_bound)
    return last.get((n,) * k, (0, {}))[1]


def _running_max(vector, kind, g, g2):
    return ((max(gmax, g2), c) for gmax, c in vector.items())


def _peaks(vector, kind, g, g2):
    return (
        ((kind is StepKind.UP, peaks + (was_up and kind is StepKind.DOWN)), c)
        for (was_up, peaks), c in vector.items()
    )


@pytest.mark.parametrize("k, last", [(2, 9), (3, 6), (4, 4), (5, 3), (6, 3)])
def test_rows_read_off_the_diagonal_equal_rows_walked_in_their_own_box(k, last):
    from sscat.triangles import triangle_rows

    ns = range(last + 1)
    heights = [_row_in_its_own_box(k, n, {0: 1}, _running_max) for n in ns]
    assert lattice_diagonal(k, last, {0: 1}, _running_max) == heights
    assert [row.entries for row in triangle_rows("height", k, ns)] == heights
    peaks = []
    for n in ns:
        by_peaks = Counter()
        for (_, count), c in _row_in_its_own_box(k, n, {(False, 0): 1}, _peaks).items():
            by_peaks[count] += c
        peaks.append(dict(by_peaks))
    assert [row.entries for row in triangle_rows("narayana", k, ns)] == peaks
    # below the height of the lowest path no row n >= 1 keeps a path; at
    # it, each row keeps that one path
    low = min_path_height(k)
    for u, paths_left in ((low - 1, 0), (low, 1)):
        bounded = [_row_in_its_own_box(k, n, {0: 1}, _running_max, u) for n in ns]
        assert lattice_diagonal(k, last, {0: 1}, _running_max, u) == bounded
        assert [sum(row.values()) for row in bounded[1:]] == [paths_left] * last


@pytest.mark.parametrize("k, n", [(2, 8), (3, 6), (4, 5), (5, 4), (6, 3)])
def test_height_rows_are_differences_of_transfer_matrix_counts(k, n):
    counts = [bounded_sequence(k, u, n + 1)[n] for u in range(max_path_height(k, n) + 1)]
    differences = {
        u: count - previous
        for u, (previous, count) in enumerate(zip([0] + counts, counts))
        if count != previous
    }
    assert height_triangle_row(k, n).entries == differences


@pytest.mark.parametrize(
    "argv",
    [
        ("triangle", "height", "4", "--rows", "5"),
        ("oeis-check", "A001246", "rightmost:4", "--offline", "--terms", "4"),
    ],
    ids=" ".join,
)
def test_triangle_commands_build_no_transfer_matrix(monkeypatch, capsys, tmp_path, argv):
    from sscat import counting

    monkeypatch.setenv("OEIS_CACHE_DIR", str(tmp_path))  # only the bundled b-files
    built = []
    original = counting._transfer_matrix

    def spy(k, u):
        built.append((k, u))
        return original(k, u)

    monkeypatch.setattr(counting, "_transfer_matrix", spy)
    assert main(list(argv)) == 0
    assert built == []


def test_triangle_budget_counts_a_command_as_a_whole():
    # Estimates only: no row is walked here.  A command is charged for the
    # one box of its last row, whatever rows it starts from.
    from sscat.triangles import _check_work

    for k, rows in ((2, 211), (3, 58), (4, 27), (6, 13), (1333333, 0)):
        _check_work("height", k, range(rows + 1))
        _check_work("height", k, range(rows, rows + 1))
    for k, rows in ((2, 212), (3, 59), (4, 28), (6, 14), (1333334, 0)):
        for ns in (range(rows + 1), range(rows, rows + 1)):
            with pytest.raises(TooLargeError, match=f"the height triangle .k={k}, n=.*needs"):
                _check_work("height", k, ns)


def test_height_rows_beyond_the_old_path_cap():
    # (4, 6) has 1.3e8 paths and (6, 7) 1.1e13, more than enumeration ever
    # allowed; both stay within the triangle work budget
    for k, n in ((4, 6), (6, 7)):
        row = height_triangle_row(k, n)
        assert row.total() == catalan_number(k, n)
        assert row.entries[max_path_height(k, n)] == catalan_number(k // 2, n) ** 2


def test_verifier_failure_raises():
    from sscat.triangles import _expect

    with pytest.raises(FormulaViolationError) as excinfo:
        _expect(False, "values differ", expected=3, actual=4)
    assert "values differ" in str(excinfo.value)


def test_run_verifiers_all_and_json(capsys):
    records = run_verifiers("all")
    assert records
    assert main(["verify", "all", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed == [r.to_json() for r in records]
    assert all(r["passed"] for r in parsed)
    with pytest.raises(ValueError):
        run_verifiers("no-such-family")


def test_scan_power_of_two():
    hits = scan_power_of_two(5, 8, n_max=6)
    assert {(2, 2), (4, 6), (5, 8)} <= set(hits)
    assert (3, 4) not in hits  # its counts grow like 1, 1, 5, 21, ...


@pytest.mark.parametrize("n_max", [1, 2, 6])
def test_scan_power_of_two_matches_the_scan_of_every_sequence(n_max):
    # The scan drops a (k, u) by its first counts from the lattice walk;
    # every sequence read whole from its transfer matrix finds the same hits.
    powers = [2 ** (n - 1) for n in range(1, n_max + 1)]
    expected = [
        (k, u)
        for k in range(2, 9)
        for u in range(min_path_height(k), 31)
        if bounded_sequence(k, u, n_max + 1)[1:] == powers
    ]
    assert expected and scan_power_of_two(8, 30, n_max) == expected


def test_each_transfer_matrix_is_evaluated_once(monkeypatch):
    # one orbit gives every term of a sequence, so each matrix is evaluated
    # once per weight assignment, not once per n
    evaluated = Counter()
    original = TransferMatrix.evaluated

    def counted(matrix, w, modulus=None):
        evaluated[matrix.space.k, matrix.space.u] += 1
        return original(matrix, w, modulus)

    monkeypatch.setattr(TransferMatrix, "evaluated", counted)
    hits = scan_power_of_two(7, 20, 8)
    # only the (k, u) whose first counts are 1 and 2 reach a matrix
    assert set(evaluated.values()) == {1} and set(hits) < set(evaluated)
    rng = random.Random(43)
    assignments = [WeightAssignment()] + [random_assignment(rng) for _ in range(2)]
    evaluated.clear()
    verify_recurrence_3_4(8, assignments)
    assert evaluated == {(3, 4): len(assignments)}
    evaluated.clear()
    verify_closed_4_6_and_5_8(8, assignments)
    assert evaluated == {(4, 6): len(assignments), (5, 8): len(assignments)}
