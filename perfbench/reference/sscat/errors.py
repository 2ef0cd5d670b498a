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
    """A brute-force enumeration would exceed the configured path cap."""


class InvalidTableauError(SscatError):
    """A grid of integers is not a standard Young tableau of the needed shape."""


class FormulaViolationError(SscatError):
    """A verified identity failed; carries the offending expected/actual pair."""

    def __init__(self, message, expected=None, actual=None, witness=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual
        self.witness = witness


class UncomputableError(SscatError):
    """No divisibility certificate holds and brute force is out of reach."""


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
