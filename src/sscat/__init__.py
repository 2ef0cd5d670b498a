"""k-dimensional semisymmetric weighted Catalan numbers.

Balanced ballot paths, semisymmetric height and weights, exact counting
(lattice DP, transfer-matrix DP, and brute force), height/Narayana triangles,
periodicity mod m, the standard-Young-tableau bijection with its tally
statistic, and OEIS b-file tooling.

Importing the package loads none of its modules: each exported name
imports its module on first use (PEP 562), so a CLI command pays only for
the modules it runs.
"""

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "backend": "ACTIVE_BACKEND height_histogram peak_histogram stat_histograms",
        "counting": """DEFAULT_PATH_CAP StateSpace TransferMatrix bounded_sswcn_brute
            bounded_sequence bounded_sswcn_dp build_state_space catalan_number
            legacy_wcn_brute max_path_height min_path_height sswcn_brute
            sswcn_lattice sswcn_lattice_value sub_sswcn_brute""",
        "errors": """BFileError BFileGapError BFileParseError FetchError
            FormulaViolationError InvalidDimensionError InvalidDirectionError
            InvalidEndpointError InvalidPathError InvalidStateError
            InvalidTableauError NoOverlapError OutOfBoxError
            SequenceUnavailableError SscatError TooLargeError""",
        "oeis": "ComparisonReport SequenceRecord compare_sequences fetch_bfile parse_bfile",
        "paths": """BallotPath enumerate_paths enumerate_sub_paths is_ballot_point
            reflect_point reverse_complement step_class""",
        "periodicity": """PeriodReport TruncationCertificate check_entrywise_divisibility
            check_pairwise_product_divisibility detect_eventual_period
            unbounded_sswcn_mod""",
        "syt": "Tableau path_to_tableau subtableau tableau_to_path tally",
        "triangles": """TriangleRow VerificationRecord height_triangle_row narayana_row
            run_verifiers scan_power_of_two verify_closed_4_6_and_5_8
            verify_dprime_3_2n verify_min_u_formulas verify_narayana_one_peak
            verify_recurrence_3_4 verify_rightmost_entries""",
        "weights": """ALL_ONES WeightAssignment WeightMonomial WeightPolynomial
            count_ss_peaks legacy_height_point legacy_wt ss_height_path
            ss_height_point sswt""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
