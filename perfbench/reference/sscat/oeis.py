"""OEIS b-file ingestion, caching, comparison, and emission.

A b-file is plain text with one `index value` pair per line; lines
starting with `#` and blank lines are ignored; indices must be
consecutive.  Sequences are looked up in the cache directory first, then
in the fixtures shipped with the package, and only then (unless offline)
over the network.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
_FIXTURE_DIR = Path(__file__).parent / "fixtures"
_ID_PATTERN = re.compile(r"^A\d{6,}$")


@dataclass(frozen=True)
class SequenceRecord:
    """A contiguous run of integer sequence values starting at `offset`."""

    id: str
    offset: int
    values: tuple[int, ...]

    def value_at(self, index: int) -> int:
        if not self.offset <= index < self.offset + len(self.values):
            raise IndexError(f"index {index} outside {self.id}'s stored range")
        return self.values[index - self.offset]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "offset": self.offset,
            "values": [str(v) for v in self.values],
        }


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


def emit_bfile(record: SequenceRecord) -> str:
    """Render a record as b-file text (parse's inverse on the data lines)."""
    return "".join(
        f"{record.offset + i} {v}\n" for i, v in enumerate(record.values)
    )


def _cache_dir(cache_dir: Optional[str]) -> Path:
    return Path(cache_dir or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def _bfile_name(id: str) -> str:
    return f"b{id[1:]}.txt"


def _atomic_write(path: Path, text: str) -> None:
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
    timeout: float = 30.0,
) -> SequenceRecord:
    """Load a sequence, consulting the cache, then bundled fixtures, then
    (unless offline) https://oeis.org.  Fetched bodies are cached verbatim
    via temp-file-then-rename."""
    if not _ID_PATTERN.match(id):
        raise ValueError(f"{id!r} is not a valid A-number")
    cache_path = _cache_dir(cache_dir) / _bfile_name(id)
    if cache_path.is_file():
        return parse_bfile(cache_path.read_text(), id)
    fixture = _FIXTURE_DIR / f"{id}.txt"
    if fixture.is_file():
        return parse_bfile(fixture.read_text(), id)
    if offline:
        raise SequenceUnavailableError(
            f"{id}: no cached or bundled copy, and offline mode is on"
        )
    import requests

    url = OEIS_URL_TEMPLATE.format(id=id, digits=id[1:])
    try:
        response = requests.get(url, timeout=timeout)
    except requests.RequestException as exc:
        raise SequenceUnavailableError(f"{id}: network fetch failed: {exc}") from exc
    if response.status_code != 200:
        raise FetchError(f"{id}: HTTP {response.status_code} from {url}")
    record = parse_bfile(response.text, id)
    _atomic_write(cache_path, response.text)
    return record


@dataclass(frozen=True)
class ComparisonReport:
    """Result of comparing two records over their common index range."""

    overlap_start: int
    overlap_length: int
    first_mismatch: Optional[int]
    match: bool

    def to_json(self) -> dict:
        return {
            "overlap_start": self.overlap_start,
            "overlap_length": self.overlap_length,
            "first_mismatch": self.first_mismatch,
            "match": self.match,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


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
