"""k-dimensional semisymmetric weighted Catalan numbers.

Balanced ballot paths, semisymmetric height and weights, exact counting
(brute force and transfer-matrix DP), height/Narayana triangles,
periodicity mod m, the standard-Young-tableau bijection with its tally
statistic, and OEIS b-file tooling.
"""

from .backend import ACTIVE_BACKEND, available_backends, stat_histograms
from .counting import (
    DEFAULT_PATH_CAP,
    StateSpace,
    TransferMatrix,
    bounded_catalan,
    bounded_sswcn_brute,
    bounded_sswcn_dp,
    build_state_space,
    build_transfer_matrix,
    catalan_number,
    legacy_wcn_brute,
    max_path_height,
    min_path_height,
    sswcn_brute,
    sub_sswcn_brute,
)
from .errors import (
    BFileError,
    BFileGapError,
    BFileParseError,
    FetchError,
    FormulaViolationError,
    InvalidDimensionError,
    InvalidDirectionError,
    InvalidEndpointError,
    InvalidPathError,
    InvalidStateError,
    InvalidTableauError,
    NoOverlapError,
    OutOfBoxError,
    SequenceUnavailableError,
    SscatError,
    TooLargeError,
    UncomputableError,
)
from .oeis import (
    ComparisonReport,
    SequenceRecord,
    compare_sequences,
    emit_bfile,
    fetch_bfile,
    parse_bfile,
)
from .paths import (
    BallotPath,
    enumerate_paths,
    enumerate_sub_paths,
    is_ballot_point,
    reflect_point,
    reverse_complement,
    step_class,
)
from .periodicity import (
    PeriodReport,
    TruncationCertificate,
    bounded_sequence_mod,
    check_entrywise_divisibility,
    check_pairwise_product_divisibility,
    detect_eventual_period,
    unbounded_sswcn_mod,
)
from .syt import Tableau, path_to_tableau, subtableau, tableau_to_path, tally
from .triangles import (
    TriangleRow,
    VerificationRecord,
    height_triangle_row,
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
from .weights import (
    ALL_ONES,
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

__version__ = "0.1.0"
