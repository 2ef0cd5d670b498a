"""Exception hierarchy shared across the package."""


class SscatError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(SscatError):
    """The ambient dimension is below 2 or inconsistent between arguments."""


class InvalidDirectionError(SscatError):
    """A step direction lies outside 1..k."""


class InvalidEndpointError(SscatError):
    """A sub-path endpoint is not a ballot point, or endpoints are not ordered."""


class InvalidPathError(SscatError):
    """A step sequence violates the ballot or balanced property."""


class OutOfBoxError(SscatError):
    """A coordinate exceeds the box size n, so the reflection is undefined."""


class InvalidStateError(SscatError):
    """A point is not a valid boundary state (not ballot, or above the bound)."""


class TooLargeError(SscatError):
    """A computation's estimated seconds or bytes pass `TIME_LIMIT_S` or
    `MEMORY_LIMIT_BYTES`; only `charge` raises it."""


# The one cost model.  Every route that can refuse an input estimates, before
# the work it prices, its seconds from the unit costs of `COST` (and its
# bytes, where it holds much), and calls `charge`.  The limits: a refused
# input exits 2 at once, and the slowest admitted input of each route takes
# about 1-3 s of CPU on a 2-core VM with Python 3.11.
TIME_LIMIT_S = 2.0
MEMORY_LIMIT_BYTES = 2**29

# Seconds per unit, each measured on that VM (the README lists the fits).
COST = {
    # one (point, successor) pair of a walk: the successor test, the new
    # point and its dict slot; a brute-force oracle pays two per path step
    "edge": 1.5e-6,
    # one coordinate copied into a new point
    "coordinate": 66e-9,
    # one tag moved along a pair, plus its integers' bits
    "tag": 50e-9,
    "bit": 60e-12,
    # one step printed by `sscat enumerate`, or one coordinate of a point
    # its walk holds
    "printed step": 170e-9,
    # the division of (kn)! by the hooks, per squared bit of (kn)!
    "factorial bit^2": 0.4e-12,
    # one bit of a big-integer sum or product in a bounded count, and one
    # product of small integers (at least 2^9 such bits)
    "term bit": 2.3e-10,
    "product": 1.2e-7,
}


def charge(what: str, seconds: float = 0.0, nbytes: int = 0) -> None:
    """Raise `TooLargeError`, naming *what*, its estimate and the limit,
    when *seconds* passes `TIME_LIMIT_S` or *nbytes* passes
    `MEMORY_LIMIT_BYTES`."""
    if seconds > TIME_LIMIT_S:
        raise TooLargeError(
            f"{what} needs an estimated {seconds:.3g} s, over the {TIME_LIMIT_S:g} s limit"
        )
    if nbytes > MEMORY_LIMIT_BYTES:
        shown = f"{nbytes / 2**20:.4g}" if nbytes < 2**1000 else f"~2^{nbytes.bit_length() - 21}"
        raise TooLargeError(
            f"{what} needs an estimated {shown} MB, over the "
            f"{MEMORY_LIMIT_BYTES >> 20} MB limit"
        )


class InvalidTableauError(SscatError):
    """A grid of integers is not a standard Young tableau of the needed shape."""


class FormulaViolationError(SscatError):
    """A verified identity failed; carries the offending expected/actual pair."""

    def __init__(self, message, expected=None, actual=None, witness=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual
        self.witness = witness


class BFileError(SscatError):
    """Base class for b-file ingestion problems."""


class BFileParseError(BFileError):
    """A b-file line is malformed; carries the 1-based line number."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BFileGapError(BFileError):
    """Indices in a b-file are not consecutive."""


class SequenceUnavailableError(SscatError):
    """Neither cache, fixture, nor network could supply the sequence."""


class FetchError(SscatError):
    """The OEIS server answered with a non-success status."""


class NoOverlapError(SscatError):
    """Two sequence records share no index range to compare."""
