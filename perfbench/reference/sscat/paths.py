"""Points, step taxonomy, and pruned enumeration of ballot paths.

A *ballot point* in dimension k is a tuple with weakly decreasing
nonnegative coordinates.  A *balanced ballot path* of length k*n starts at
the origin, uses each unit direction exactly n times, and keeps every
prefix point ballot.  A *sub-ballot path* is the same walk between two
arbitrary ballot points.  Paths store direction indices (1..k); points are
recomputed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional

from .errors import (
    InvalidDimensionError,
    InvalidDirectionError,
    InvalidEndpointError,
    InvalidPathError,
    OutOfBoxError,
)

Point = tuple[int, ...]


@lru_cache(maxsize=None)
def height_coefficients(k: int) -> tuple[int, ...]:
    """Coefficients (k+1-2i) of the semisymmetric height, for i = 1..k."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    return tuple(k + 1 - 2 * i for i in range(1, k + 1))


class StepKind(Enum):
    UP = "up"
    NEUTRAL = "neutral"
    DOWN = "down"


@dataclass(frozen=True)
class StepClass:
    kind: StepKind
    direction: int


def step_class(k: int, direction: int) -> StepClass:
    """Classify a unit step: up for i <= k//2, down for the mirror range,
    neutral for the middle direction when k is odd."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    if not 1 <= direction <= k:
        raise InvalidDirectionError(f"direction {direction} not in 1..{k}")
    if direction <= k // 2:
        kind = StepKind.UP
    elif k % 2 == 1 and direction == k // 2 + 1:
        kind = StepKind.NEUTRAL
    else:
        kind = StepKind.DOWN
    return StepClass(kind, direction)


def is_ballot_point(p: Point) -> bool:
    """True iff coordinates are weakly decreasing and nonnegative."""
    if len(p) < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {len(p)}")
    return all(a >= b for a, b in zip(p, p[1:])) and p[-1] >= 0


@dataclass(frozen=True)
class BallotPath:
    """An immutable ballot walk: origin point plus direction indices."""

    k: int
    steps: tuple[int, ...]
    origin: Point = field(default=())

    def __post_init__(self):
        if self.k < 2:
            raise InvalidDimensionError(f"dimension must be >= 2, got {self.k}")
        origin = tuple(self.origin) if self.origin else (0,) * self.k
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "steps", tuple(self.steps))
        if len(origin) != self.k:
            raise InvalidPathError(
                f"origin has {len(origin)} coordinates, expected {self.k}"
            )
        if not is_ballot_point(origin):
            raise InvalidPathError(f"origin {origin} is not a ballot point")
        x = list(origin)
        for i, d in enumerate(self.steps):
            if not 1 <= d <= self.k:
                raise InvalidDirectionError(f"step {i}: direction {d} not in 1..{self.k}")
            x[d - 1] += 1
            if d > 1 and x[d - 1] > x[d - 2]:
                raise InvalidPathError(
                    f"prefix of length {i + 1} violates the ballot property at {tuple(x)}"
                )

    def __len__(self) -> int:
        return len(self.steps)

    def points(self) -> Iterator[Point]:
        """Yield the k*n + 1 intermediate points, origin and endpoint included."""
        x = list(self.origin)
        yield tuple(x)
        for d in self.steps:
            x[d - 1] += 1
            yield tuple(x)

    @property
    def endpoint(self) -> Point:
        x = list(self.origin)
        for d in self.steps:
            x[d - 1] += 1
        return tuple(x)

    def is_balanced(self) -> bool:
        """True iff the path starts at the origin and uses every direction
        equally often."""
        if any(self.origin):
            return False
        n, r = divmod(len(self.steps), self.k)
        if r:
            return False
        return all(self.steps.count(d) == n for d in range(1, self.k + 1))


def enumerate_paths(
    k: int, n: int, height_bound: Optional[int] = None
) -> Iterator[BallotPath]:
    """Enumerate balanced ballot paths of length k*n in depth-first order,
    trying directions 1..k at each step.

    Prunes any branch that breaks the ballot property, overuses a
    direction, or (when *height_bound* is given) exceeds the semisymmetric
    height bound.
    """
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    coeffs = height_coefficients(k)
    if height_bound is not None and height_bound < 0:
        return  # even the empty path has height 0
    if n == 0:
        yield BallotPath(k, ())
        return
    counts = [0] * (k + 1)
    path: list[int] = []
    total = k * n

    def rec(depth: int, g: int) -> Iterator[BallotPath]:
        if depth == total:
            yield BallotPath(k, tuple(path))
            return
        for d in range(1, k + 1):
            if counts[d] >= n or (d > 1 and counts[d] >= counts[d - 1]):
                continue
            g2 = g + coeffs[d - 1]
            if height_bound is not None and g2 > height_bound:
                continue
            counts[d] += 1
            path.append(d)
            yield from rec(depth + 1, g2)
            counts[d] -= 1
            path.pop()

    yield from rec(0, 0)


def enumerate_sub_paths(
    k: int,
    start: Point,
    end: Point,
    height_bound: Optional[int] = None,
) -> Iterator[BallotPath]:
    """Enumerate sub-ballot paths from *start* to *end*, depth-first.

    Both endpoints must be ballot points with start <= end coordinatewise.
    """
    start, end = tuple(start), tuple(end)
    if len(start) != k or len(end) != k:
        raise InvalidEndpointError("endpoints must have exactly k coordinates")
    if not (is_ballot_point(start) and is_ballot_point(end)):
        raise InvalidEndpointError(f"endpoints {start}, {end} must be ballot points")
    if any(a > b for a, b in zip(start, end)):
        raise InvalidEndpointError(f"start {start} must not exceed end {end}")
    coeffs = height_coefficients(k)
    g0 = sum(c * x for c, x in zip(coeffs, start))
    if height_bound is not None and g0 > height_bound:
        return
    x = list(start)
    path: list[int] = []
    total = sum(b - a for a, b in zip(start, end))

    def rec(depth: int, g: int) -> Iterator[BallotPath]:
        if depth == total:
            yield BallotPath(k, tuple(path), origin=start)
            return
        for d in range(1, k + 1):
            i = d - 1
            if x[i] >= end[i] or (d > 1 and x[i] >= x[i - 1]):
                continue
            g2 = g + coeffs[i]
            if height_bound is not None and g2 > height_bound:
                continue
            x[i] += 1
            path.append(d)
            yield from rec(depth + 1, g2)
            x[i] -= 1
            path.pop()

    yield from rec(0, g0)


def reflect_point(k: int, n: int, p: Point) -> Point:
    """The box reflection (x_1..x_k) -> (n-x_k, ..., n-x_1); an involution
    that preserves the semisymmetric height."""
    p = tuple(p)
    if len(p) != k:
        raise InvalidDimensionError(f"point has {len(p)} coordinates, expected {k}")
    if any(c > n for c in p):
        raise OutOfBoxError(f"point {p} has a coordinate above n={n}")
    if any(c < 0 for c in p):
        raise OutOfBoxError(f"point {p} has a negative coordinate")
    return tuple(n - c for c in reversed(p))


def reverse_complement(path: BallotPath) -> BallotPath:
    """Reflect every intermediate point through the box and reverse.

    This is an involution on balanced ballot paths that preserves the
    semisymmetric height.
    """
    if not path.is_balanced():
        raise InvalidPathError("reverse_complement requires a balanced path")
    k = path.k
    n = len(path) // k
    pts = [reflect_point(k, n, p) for p in path.points()]
    pts.reverse()
    steps = []
    for a, b in zip(pts, pts[1:]):
        diff = [y - x for x, y in zip(a, b)]
        steps.append(diff.index(1) + 1)
    return BallotPath(k, tuple(steps))
