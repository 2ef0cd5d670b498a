"""Points, the semisymmetric height, step taxonomy, the ballot-successor
rule, and the two walks built on it: pruned depth-first enumeration of
ballot paths, for `sscat enumerate` and the brute-force oracles, and one
layered lattice DP that sums over walks without enumerating them, for the
box [0, n]^k and for the k-step blocks of the transfer matrix.  Both walks
start from `ss_height_point`, and the DP hands each step its `StepKind`,
so callers never re-derive the up/neutral/down split from a direction.

A *ballot point* in dimension k is a tuple with weakly decreasing
nonnegative coordinates.  A *balanced ballot path* of length k*n starts at
the origin, uses each unit direction exactly n times, and keeps every
prefix point ballot.  A *sub-ballot path* is the same walk between two
arbitrary ballot points.  A path is its tuple of direction indices (1..k);
points are recomputed on demand.

The enumerators check their arguments when called and then yield the
DFS's own step tuples, which are ballot by construction.  `BallotPath`
checks the ballot property of outside input (the CLI's `syt` argument,
tableaux read back as paths) and of the walks the brute-force oracles
rebuild from those tuples.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

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


def ss_height_point(p: Point) -> int:
    """Semisymmetric height g_k of a point (ballotness not required)."""
    if len(p) < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {len(p)}")
    return sum(c * x for c, x in zip(height_coefficients(len(p)), p))


class StepKind(Enum):
    UP = "up"
    NEUTRAL = "neutral"
    DOWN = "down"


def step_class(k: int, direction: int) -> StepKind:
    """Classify a unit step: up for i <= k//2, down for the mirror range,
    neutral for the middle direction when k is odd."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    if not 1 <= direction <= k:
        raise InvalidDirectionError(f"direction {direction} not in 1..{k}")
    if direction <= k // 2:
        return StepKind.UP
    if k % 2 == 1 and direction == k // 2 + 1:
        return StepKind.NEUTRAL
    return StepKind.DOWN


Step = Callable[[dict, StepKind, int, int], Iterable[tuple[Hashable, int]]]


def is_ballot_point(p: Point) -> bool:
    """True iff coordinates are weakly decreasing and nonnegative."""
    if len(p) < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {len(p)}")
    return all(a >= b for a, b in zip(p, p[1:])) and p[-1] >= 0


class _Frozen:
    """Base of the value classes that check their fields as they are made:
    compared and hashed by the fields named in `__slots__`, which
    `__init__` sets once with `object.__setattr__`; assigning one later
    raises `AttributeError`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        self.__setattr__(name, None)


class BallotPath(_Frozen):
    """An immutable ballot walk: origin point plus direction indices."""

    __slots__ = ("k", "steps", "origin")

    def __init__(self, k: int, steps: Iterable[int], origin: Point = ()):
        if k < 2:
            raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
        origin = tuple(origin) if origin else (0,) * k
        steps = tuple(steps)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "origin", origin)
        if len(origin) != k:
            raise InvalidPathError(f"origin has {len(origin)} coordinates, expected {k}")
        if not is_ballot_point(origin):
            raise InvalidPathError(f"origin {origin} is not a ballot point")
        x = list(origin)
        for i, d in enumerate(steps):
            if not 1 <= d <= k:
                raise InvalidDirectionError(f"step {i}: direction {d} not in 1..{k}")
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


def ballot_successors(x: Sequence[int], top: Point) -> list[int]:
    """The directions d (1..k) such that x + e_d is still a ballot point
    inside the box with upper corner *top*."""
    found = [1] if x[0] < top[0] else []
    for i in range(1, len(x)):
        if x[i] < x[i - 1] and x[i] < top[i]:
            found.append(i + 1)
    return found


# A point lists its walks to the top, its suffixes, when they hold at most
# SUFFIX_STEPS steps in all.  The bound on steps, not walks, keeps a long
# walk with few branches from storing a suffix at every point of it.
SUFFIX_STEPS = 2**10


def ballot_walks(
    k: int, start: Point, top: Point, height_bound: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Depth-first walks of successor steps from *start* to *top*, trying
    directions 1..k at each step; yields each walk's steps.

    Prunes any branch whose semisymmetric height exceeds *height_bound*.
    Every reachable point is visited once first, leaves before the points
    that step to them, for its successors and, within SUFFIX_STEPS, the
    list of its suffixes in depth-first order.  The DFS then stops at the
    first point of a walk that has the list, and yields each walk as its
    prefix joined to one suffix."""
    coeffs = height_coefficients(k)
    g0 = ss_height_point(start)
    if height_bound is not None and g0 > height_bound:
        return
    start, top = tuple(start), tuple(top)
    total = sum(top)
    successors: dict[Point, list[tuple[int, Point]]] = {}
    suffixes: dict[Point, Optional[list[tuple[int, ...]]]] = {}
    todo = [(start, g0)]
    while todo:
        x, g = todo[-1]
        if x not in successors:
            successors[x] = moves = []
            for d in ballot_successors(x, top):
                g2 = g + coeffs[d - 1]
                if height_bound is None or g2 <= height_bound:
                    y = x[: d - 1] + (x[d - 1] + 1,) + x[d:]
                    moves.append((d, y))
                    if y not in successors:
                        todo.append((y, g2))
            continue
        todo.pop()
        if x in suffixes:
            continue
        # Every successor was finished above x: the steps only go up.
        remaining = total - sum(x)
        found: Optional[list[tuple[int, ...]]] = [()] if x == top else []
        for d, y in successors[x]:
            tails = suffixes[y]
            if tails is None or (len(found) + len(tails)) * remaining > SUFFIX_STEPS:
                found = None
                break
            found += [(d,) + tail for tail in tails]
        suffixes[x] = found
    walks = [(start, ())]
    while walks:
        x, prefix = walks.pop()
        tails = suffixes[x]
        if tails is None:
            walks.extend((y, prefix + (d,)) for d, y in reversed(successors[x]))
        else:
            yield from map(prefix.__add__, tails)


def lattice_walk(
    k: int,
    start: Point,
    top: Point,
    length: int,
    seed: dict,
    step: Step,
    height_bound: Optional[int] = None,
) -> dict[Point, dict]:
    """Layered DP over the ballot points of the box from *start* to *top*,
    *length* steps deep; returns {endpoint: vector}.

    Every point carries a sparse vector {tag: coefficient}; the one at
    *start* is *seed*.  Moving a vector along a step of kind
    ``step_class(k, d)`` from a point of height g to one of height g2 is
    ``step(vector, kind, g, g2)``, which yields (tag, coefficient) pairs;
    pairs reaching the same point are summed.  Steps (and a start) above
    *height_bound* are pruned.  Since a step's effect depends only on its
    kind and end points, each endpoint's vector sums the effect of every
    walk reaching it, visiting none."""
    coeffs = height_coefficients(k)
    kinds = [step_class(k, d) for d in range(1, k + 1)]
    g0 = ss_height_point(start)
    if height_bound is not None and g0 > height_bound:
        return {}
    layer: dict[Point, tuple[int, dict]] = {start: (g0, seed)}
    for _ in range(length):
        following: dict[Point, tuple[int, dict]] = {}
        for x, (g, vector) in layer.items():
            for d in ballot_successors(x, top):
                g2 = g + coeffs[d - 1]
                if height_bound is not None and g2 > height_bound:
                    continue
                y = x[: d - 1] + (x[d - 1] + 1,) + x[d:]
                target = following.setdefault(y, (g2, {}))[1]
                for tag, coeff in step(vector, kinds[d - 1], g, g2):
                    target[tag] = target.get(tag, 0) + coeff
        layer = following
    return {x: vector for x, (_, vector) in layer.items()}


def lattice_sum(
    k: int, n: int, seed: dict, step: Step, height_bound: Optional[int] = None
) -> dict:
    """`lattice_walk` through the box [0, n]^k from the origin to its top
    corner (n, ..., n): the vector summing every balanced walk of length
    k*n, or {} when none stays within *height_bound*."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    top = (n,) * k
    return lattice_walk(k, (0,) * k, top, k * n, seed, step, height_bound).get(top, {})


def enumerate_paths(
    k: int, n: int, height_bound: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """The balanced ballot paths of length k*n as step tuples, in the
    depth-first order of `ballot_walks`, pruned above *height_bound* when
    given: `enumerate_sub_paths` across the box [0, n]^k."""
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    return enumerate_sub_paths(k, (0,) * k, (n,) * k, height_bound)


def enumerate_sub_paths(
    k: int,
    start: Point,
    end: Point,
    height_bound: Optional[int] = None,
) -> Iterator[tuple[int, ...]]:
    """The sub-ballot paths from *start* to *end* as step tuples, depth-first.

    Both endpoints must be ballot points with start <= end coordinatewise,
    and the height bound, when given, nonnegative.  The arguments are
    checked here, before the walk starts.
    """
    if k < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {k}")
    start, end = tuple(start), tuple(end)
    if len(start) != k or len(end) != k:
        raise InvalidEndpointError("endpoints must have exactly k coordinates")
    if not (is_ballot_point(start) and is_ballot_point(end)):
        raise InvalidEndpointError(f"endpoints {start}, {end} must be ballot points")
    if any(a > b for a, b in zip(start, end)):
        raise InvalidEndpointError(f"start {start} must not exceed end {end}")
    if height_bound is not None and height_bound < 0:
        raise ValueError(f"height bound must be >= 0, got {height_bound}")
    return ballot_walks(k, start, end, height_bound)


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
    """Reflect every intermediate point through the box and reverse: the
    steps d_1 ... d_N become k+1-d_N ... k+1-d_1.

    This is an involution on balanced ballot paths that preserves the
    semisymmetric height.
    """
    if not path.is_balanced():
        raise InvalidPathError("reverse_complement requires a balanced path")
    k = path.k
    return BallotPath(k, tuple(k + 1 - d for d in reversed(path.steps)))
