"""OEIS b-file ingestion, caching, and comparison.

A b-file is plain text with one `index value` pair per line; lines
starting with `#` and blank lines are ignored; indices must be
consecutive.  Sequences are looked up in the cache directory first, then
in the fixtures shipped with the package, and only then (unless offline)
over the network.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import (
    BFileGapError,
    BFileParseError,
    FetchError,
    NoOverlapError,
    SequenceUnavailableError,
)

OEIS_URL_TEMPLATE = "https://oeis.org/{id}/b{digits}.txt"
CACHE_DIR_ENV = "OEIS_CACHE_DIR"
DEFAULT_CACHE_DIR = ".oeis-cache"
FETCH_TIMEOUT_S = 30.0
_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_ID_PATTERN = re.compile(r"^A\d{6,}$")


class SequenceRecord(NamedTuple):
    """A contiguous run of integer sequence values starting at `offset`."""

    id: str
    offset: int
    values: tuple[int, ...]

    def value_at(self, index: int) -> int:
        if not self.offset <= index < self.offset + len(self.values):
            raise IndexError(f"index {index} outside {self.id}'s stored range")
        return self.values[index - self.offset]


def parse_bfile(text: str, id: str = "") -> SequenceRecord:
    """Parse b-file text into a record; raises on malformed lines or
    non-consecutive indices."""
    offset: Optional[int] = None
    previous: Optional[int] = None
    values: list[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'index value', got {line!r}", line_number)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {line!r}", line_number) from None
        if previous is not None and index != previous + 1:
            raise BFileGapError(
                f"line {line_number}: index {index} does not follow {previous}"
            )
        if offset is None:
            offset = index
        previous = index
        values.append(value)
    if offset is None:
        raise BFileParseError("no data lines found", 1)
    return SequenceRecord(id, offset, tuple(values))


def _atomic_write(path: Path, text: str) -> None:
    # Imported here: only a fetch writes, and tempfile (with shutil and
    # random) takes about 14 ms to import on Python 3.11.
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def fetch_bfile(
    id: str,
    cache_dir: Optional[str] = None,
    offline: bool = False,
) -> SequenceRecord:
    """Load a sequence, consulting the cache, then bundled fixtures, then
    (unless offline) https://oeis.org.  Fetched bodies are cached verbatim
    via temp-file-then-rename."""
    if not _ID_PATTERN.match(id):
        raise ValueError(f"{id!r} is not a valid A-number")
    cache_dir = cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    cache_path = Path(cache_dir) / f"b{id[1:]}.txt"
    if cache_path.is_file():
        return parse_bfile(cache_path.read_text(), id)
    fixture = _FIXTURE_DIR / f"{id}.txt"
    if fixture.is_file():
        return parse_bfile(fixture.read_text(), id)
    if offline:
        raise SequenceUnavailableError(
            f"{id}: no cached or bundled copy, and offline mode is on"
        )
    # Imported here, not at module level: urllib.request loads ssl, which
    # would add tens of milliseconds and several MB to every CLI start.
    from urllib.error import HTTPError
    from urllib.request import urlopen

    url = OEIS_URL_TEMPLATE.format(id=id, digits=id[1:])
    try:
        with urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            status = response.status
            text = response.read().decode()
    except HTTPError as exc:
        raise FetchError(f"{id}: HTTP {exc.code} from {url}") from exc
    except OSError as exc:  # URLError, refused connections and timeouts
        raise SequenceUnavailableError(f"{id}: network fetch failed: {exc}") from exc
    if status != 200:
        raise FetchError(f"{id}: HTTP {status} from {url}")
    record = parse_bfile(text, id)
    _atomic_write(cache_path, text)
    return record


class ComparisonReport(NamedTuple):
    """Result of comparing two records over their common index range."""

    overlap_start: int
    overlap_length: int
    first_mismatch: Optional[int]
    match: bool


def compare_sequences(
    computed: SequenceRecord, reference: SequenceRecord
) -> ComparisonReport:
    """Compare two records over the overlap of their index ranges."""
    start = max(computed.offset, reference.offset)
    stop = min(
        computed.offset + len(computed.values),
        reference.offset + len(reference.values),
    )
    if start >= stop:
        raise NoOverlapError(
            f"{computed.id or 'computed'} and {reference.id or 'reference'} "
            "share no index range"
        )
    first_mismatch = None
    for index in range(start, stop):
        if computed.value_at(index) != reference.value_at(index):
            first_mismatch = index
            break
    return ComparisonReport(start, stop - start, first_mismatch, first_mismatch is None)
