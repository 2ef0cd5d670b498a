"""Path statistics and the symbolic weight algebra.

Heights: the semisymmetric g_k(x) = sum (k+1-2i) x_i is in `paths`; the
legacy h_k(x) = (k-1) x_1 - x_2 - ... - x_k, from the earlier
generalization, is here.

Weights are monomials in variables B(i) and C(j): an up-step contributes
B(height of its starting point), every other step contributes C(height of
its resulting point).  This module owns the monomial format and the DP
step that multiplies by a step's weight, `weight_step`; the per-path
statistics keep their own arithmetic as the DP's oracles.  Sums of
weights are sparse polynomials with exact integer coefficients, which the
package only adds, compares, evaluates and prints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidDimensionError
from .paths import BallotPath, Point, StepKind, ss_height_point


def legacy_height_point(p: Point) -> int:
    """Legacy height h_k = (k-1) x_1 - sum of the remaining coordinates."""
    if len(p) < 2:
        raise InvalidDimensionError(f"dimension must be >= 2, got {len(p)}")
    return (len(p) - 1) * p[0] - sum(p[1:])


def ss_height_path(path: BallotPath) -> int:
    """Maximum semisymmetric height over all intermediate points.

    The empty balanced path has height 0 by convention.
    """
    return max(ss_height_point(p) for p in path.points())


def count_ss_peaks(path: BallotPath) -> int:
    """Number of up-steps immediately followed by a down-step."""
    up = path.k // 2
    down_start = (path.k + 1) // 2 + 1
    return sum(
        1
        for a, b in zip(path.steps, path.steps[1:])
        if a <= up and b >= down_start
    )


class WeightMonomial(NamedTuple):
    """A product of B(i)/C(j) powers; exponent maps stored as sorted tuples."""

    b: tuple[tuple[int, int], ...] = ()
    c: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        merged: dict[int, int] = {}
        for idx, exp in pairs:
            if idx < 0 or exp < 0:
                raise ValueError("indices and exponents must be nonnegative")
            if exp:
                merged[idx] = merged.get(idx, 0) + exp
        return tuple(sorted(merged.items()))

    @classmethod
    def from_indices(
        cls, b_indices: Iterable[int] = (), c_indices: Iterable[int] = ()
    ) -> "WeightMonomial":
        return cls(
            cls._normalize((i, 1) for i in b_indices),
            cls._normalize((j, 1) for j in c_indices),
        )

    def drop_c(self) -> "WeightMonomial":
        """Specialize every C variable to 1."""
        return WeightMonomial(self.b, ())

    def evaluate(self, w: "WeightAssignment", modulus: Optional[int] = None) -> int:
        """The monomial at the weights *w*; mod *modulus* when given, each
        factor is reduced by modular exponentiation before the product."""
        value = 1
        for i, e in self.b:
            value *= pow(w.b(i), e, modulus)
        for j, e in self.c:
            value *= pow(w.c(j), e, modulus)
        return value % modulus if modulus is not None else value

    def text(self) -> str:
        """Canonical print form: B block by ascending index, then C block by
        descending index (the order weights are usually written in)."""
        parts = []
        for i, e in self.b:
            parts.append(f"B{i}" if e == 1 else f"B{i}^{e}")
        for j, e in reversed(self.c):
            parts.append(f"C{j}" if e == 1 else f"C{j}^{e}")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.text()


MONOMIAL_ONE = WeightMonomial()


def _bump(pairs: tuple[tuple[int, int], ...], index: int) -> tuple[tuple[int, int], ...]:
    """The sorted (index, exponent) tuple *pairs* with the exponent of
    *index* raised by one."""
    for pos, (i, e) in enumerate(pairs):
        if i == index:
            return pairs[:pos] + ((i, e + 1),) + pairs[pos + 1 :]
        if i > index:
            return pairs[:pos] + ((index, 1),) + pairs[pos:]
    return pairs + ((index, 1),)


def weight_step(vector: dict, kind: StepKind, g: int, g2: int):
    """The lattice-DP step of the symbolic weight: an up-step multiplies each
    monomial at its start by B(g), the height of the start, any other step
    by C(g2), the height of the end.  Tags are monomials as (b, c) pairs of
    exponent tuples; seed the walk with `MONOMIAL_ONE`."""
    if kind is StepKind.UP:
        return (((_bump(b, g), c), coeff) for (b, c), coeff in vector.items())
    return (((b, _bump(c, g2)), coeff) for (b, c), coeff in vector.items())


def tag_polynomial(sums: dict) -> "WeightPolynomial":
    """Summed `weight_step` tags {(b, c): coefficient} as a polynomial."""
    return WeightPolynomial({WeightMonomial(b, c): v for (b, c), v in sums.items()})


def sswt(path: BallotPath) -> WeightMonomial:
    """Semisymmetric weight of a (sub-)ballot path as a monomial."""
    k = path.k
    up = k // 2
    b_idx, c_idx = [], []
    prev = path.origin
    for d, cur in zip(path.steps, _tail(path.points())):
        if d <= up:
            b_idx.append(ss_height_point(prev))
        else:
            c_idx.append(ss_height_point(cur))
        prev = cur
    return WeightMonomial.from_indices(b_idx, c_idx)


def legacy_wt(path: BallotPath) -> WeightMonomial:
    """Legacy weight: B(h_k of the starting point) over e_1 steps only."""
    b_idx = []
    prev = path.origin
    for d, cur in zip(path.steps, _tail(path.points())):
        if d == 1:
            b_idx.append(legacy_height_point(prev))
        prev = cur
    return WeightMonomial.from_indices(b_idx)


def _tail(points):
    it = iter(points)
    next(it)
    return it


class WeightPolynomial:
    """Sparse integer-coefficient polynomial in the B/C variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[WeightMonomial, int]] = None):
        self.terms: dict[WeightMonomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self.terms[mono] = coeff

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightPolynomial) and self.terms == other.terms

    def __add__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        result = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = result.get(mono, 0) + coeff
            if new:
                result[mono] = new
            else:
                result.pop(mono, None)
        out = WeightPolynomial()
        out.terms = result
        return out

    def add_monomial(self, mono: WeightMonomial, coeff: int = 1) -> None:
        """In-place accumulate; used by enumeration loops."""
        new = self.terms.get(mono, 0) + coeff
        if new:
            self.terms[mono] = new
        else:
            self.terms.pop(mono, None)

    def drop_c(self) -> "WeightPolynomial":
        """Specialize every C variable to 1, combining terms."""
        out = WeightPolynomial()
        for mono, coeff in self.terms.items():
            out.add_monomial(mono.drop_c(), coeff)
        return out

    def evaluate(self, w: "WeightAssignment", modulus: Optional[int] = None) -> int:
        total = sum(
            coeff * mono.evaluate(w, modulus) for mono, coeff in self.terms.items()
        )
        return total % modulus if modulus is not None else total

    def _sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda item: (item[0].b, item[0].c[::-1]),
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            if mono == MONOMIAL_ONE:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono.text())
            elif coeff == -1:
                parts.append(f"-{mono.text()}")
            else:
                parts.append(f"{coeff}*{mono.text()}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"WeightPolynomial({self.text()})"

    def to_json(self) -> Iterator[dict]:
        """JSON form, one term at a time in `text` order: coefficients as
        decimal strings, exponent maps per block."""
        for mono, coeff in self._sorted_terms():
            yield {
                "coeff": str(coeff),
                "b": {str(i): e for i, e in mono.b},
                "c": {str(j): e for j, e in mono.c},
            }


class WeightAssignment(NamedTuple):
    """An infinite integer sequence pair (b, c): explicit prefix + fill value."""

    b_prefix: tuple[int, ...] = ()
    b_fill: int = 1
    c_prefix: tuple[int, ...] = ()
    c_fill: int = 1

    def b(self, i: int) -> int:
        return self.b_prefix[i] if i < len(self.b_prefix) else self.b_fill

    def c(self, j: int) -> int:
        return self.c_prefix[j] if j < len(self.c_prefix) else self.c_fill


ALL_ONES = WeightAssignment()
