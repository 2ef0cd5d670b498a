"""Standard Young tableaux, the path bijection, and the tally statistic.

A balanced ballot path of length k*n corresponds to a rectangular k-by-n
standard Young tableau: entry i sits in row j exactly when the i-th step
moves in direction j.  Subtableaux on the entries 1..n' correspond to the
intermediate points of the path (row lengths read as coordinates).  The
tally of a tableau is its number of ascents minus its number of descents,
where i is a descent when i+1 appears in a strictly lower row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidPathError, InvalidTableauError
from .paths import BallotPath


@dataclass(frozen=True)
class Tableau:
    """A standard Young tableau; rows may have different lengths (the
    shape must be a partition), entries are exactly 1..N."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = [len(r) for r in rows]
        if any(a < b for a, b in zip(lengths, lengths[1:])):
            raise InvalidTableauError(f"row lengths {lengths} are not weakly decreasing")
        entries = [v for r in rows for v in r]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise InvalidTableauError("entries must be exactly 1..N, each once")
        for r in rows:
            if any(a >= b for a, b in zip(r, r[1:])):
                raise InvalidTableauError(f"row {r} is not strictly increasing")
        for upper, lower in zip(rows, rows[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise InvalidTableauError("columns must strictly increase downward")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def row_of(self, entry: int) -> int:
        """0-based row index containing *entry*."""
        for j, r in enumerate(self.rows):
            if entry in r:
                return j
        raise InvalidTableauError(f"entry {entry} not present")

    def render(self) -> str:
        return "\n".join(" ".join(str(v) for v in r) for r in self.rows)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def from_json(cls, data: dict) -> "Tableau":
        return cls(tuple(tuple(r) for r in data["rows"]))


def path_to_tableau(path: BallotPath) -> Tableau:
    """Rectangular tableau of a balanced path: row j collects the step
    indices (1-based) that move in direction j."""
    if not path.is_balanced():
        raise InvalidPathError("the bijection requires a balanced ballot path")
    rows = [[] for _ in range(path.k)]
    for i, d in enumerate(path.steps, start=1):
        rows[d - 1].append(i)
    return Tableau(tuple(tuple(r) for r in rows))


def tableau_to_path(t: Tableau) -> BallotPath:
    """Inverse bijection: step i moves in the direction of the row that
    contains entry i.  Requires a rectangular shape."""
    if len(set(t.shape)) > 1:
        raise InvalidTableauError(f"shape {t.shape} is not rectangular")
    row_by_entry = {v: j + 1 for j, r in enumerate(t.rows) for v in r}
    steps = tuple(row_by_entry[i] for i in range(1, t.size + 1))
    return BallotPath(len(t.rows), steps)


def subtableau(t: Tableau, n_prime: int) -> Tableau:
    """The sub-SYT on entries 1..n_prime; under the bijection this is the
    n_prime-th intermediate point of the path (row lengths = coordinates)."""
    if not 0 <= n_prime <= t.size:
        raise InvalidTableauError(f"n' must be in 0..{t.size}, got {n_prime}")
    rows = []
    for r in t.rows:
        kept = tuple(v for v in r if v <= n_prime)
        if kept:
            rows.append(kept)
    return Tableau(tuple(rows))


def tally(t: Tableau) -> int:
    """Ascents minus descents: i in 1..N-1 is a descent when i+1 lies in a
    strictly lower row, an ascent otherwise."""
    if t.size < 1:
        raise InvalidTableauError("tally requires a nonempty tableau")
    row_by_entry = {v: j for j, r in enumerate(t.rows) for v in r}
    descents = sum(
        1 for i in range(1, t.size) if row_by_entry[i + 1] > row_by_entry[i]
    )
    ascents = t.size - 1 - descents
    return ascents - descents
