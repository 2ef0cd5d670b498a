"""Path statistics and the symbolic weight algebra.

Heights: the semisymmetric g_k(x) = sum (k+1-2i) x_i is in `paths`; the
legacy h_k(x) = (k-1) x_1 - x_2 - ... - x_k, from the earlier
generalization, is here.

Weights are monomials in variables B(i) and C(j): an up-step contributes
B(height of its starting point), every other step contributes C(height of
its resulting point).  This module owns the monomial formats and the DP
step that multiplies by a step's weight, `weight_step`; the per-path
statistics keep their own arithmetic as the DP's oracles.  Sums of
weights are sparse polynomials with exact integer coefficients, which the
package only builds, compares, evaluates and prints.

A monomial is a `WeightMonomial`, two sorted (index, exponent) tuples, or
inside the lattice DP a packed *tag*: one int that is the monomial at
B(g) = 256^(w*g) and C(g) = 256^(w*(H + g)) for the heights g < H
(Kronecker substitution).  So the exponent of B(g) fills byte slot g and
that of C(g) slot H + g, each slot w bytes, little-endian; the `TagFormat`
(H, w) of a walk of s steps takes the fewest w with 256^w - 1 > s, so no
exponent carries into the next slot, and a step adds one power of 256.
Tags are the only form of a `WeightPolynomial`: it keeps a walk's
{tag: coefficient} as it is, packs a {monomial: coefficient} once, and
decodes monomials only when `terms` is read.  Its text and JSON printers
render each distinct B or C block once.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidDimensionError
from .paths import BallotPath, Point, Step, StepKind, ss_height_point


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
        blocks = (_factors("B", self.b), _factors("C", self.c[::-1]))
        return "*".join(filter(None, blocks)) or "1"

    def __str__(self) -> str:
        return self.text()


def _factors(letter: str, pairs) -> str:
    """The factors of one block in the order of *pairs*, joined by '*'."""
    return "*".join(f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}" for i, e in pairs)


class TagFormat(NamedTuple):
    """The slots of packed tags: `heights` H and the bytes per slot
    `width` w (see the module docstring)."""

    heights: int
    width: int

    @classmethod
    def for_walk(cls, heights: int, steps: int) -> "TagFormat":
        """The format of tags over heights below *heights* built by at most
        *steps* steps: the fewest bytes whose all-ones value exceeds every
        exponent."""
        return cls(heights, ((steps + 1).bit_length() + 7) // 8)

    @classmethod
    def packing(cls, terms: Mapping[WeightMonomial, int]) -> tuple["TagFormat", dict]:
        """A format that holds every monomial of *terms*, and *terms* as
        {tag: coefficient} in it."""
        pairs = [pair for mono in terms for pair in mono.b + mono.c]
        heights = 1 + max((i for i, _ in pairs), default=0)
        fmt = cls.for_walk(heights, max((e for _, e in pairs), default=0))
        bits = 8 * fmt.width
        return fmt, {
            sum(e << bits * i for i, e in mono.b)
            + sum(e << bits * (fmt.heights + j) for j, e in mono.c): coeff
            for mono, coeff in terms.items()
        }

    @property
    def shift(self) -> int:
        """The bit offset of the C block."""
        return 8 * self.width * self.heights

    def pairs(self, block: int) -> tuple[tuple[int, int], ...]:
        """The (index, exponent) pairs of the nonzero slots of one block,
        by ascending index, read from the block's bytes one slot at a time,
        in time linear in its width."""
        width = self.width
        data = block.to_bytes(-(-block.bit_length() // (8 * width)) * width, "little")
        if width > 1:
            data = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
        return tuple((i, e) for i, e in enumerate(data) if e)

    def monomial(self, tag: int) -> WeightMonomial:
        shift = self.shift
        return WeightMonomial(self.pairs(tag & ((1 << shift) - 1)), self.pairs(tag >> shift))


def weight_step(fmt: TagFormat) -> Step:
    """The lattice-DP step of the symbolic weight on tags of *fmt*: an
    up-step multiplies each monomial at its start by B(g), the height of
    the start, any other step by C(g2), the height of the end, each by
    adding that variable's tag.  Seed the walk with {0: 1}, the monomial 1."""
    bits = 8 * fmt.width
    heights = fmt.heights

    def step(vector, kind, g, g2):
        power = 1 << bits * (g if kind is StepKind.UP else heights + g2)
        return ((tag + power, coeff) for tag, coeff in vector.items())

    return step


def tag_polynomial(sums: dict, fmt: TagFormat) -> "WeightPolynomial":
    """Summed `weight_step` tags {tag: coefficient}, none of them zero, as
    a polynomial that keeps the dict without copying it."""
    poly = WeightPolynomial.__new__(WeightPolynomial)
    poly._fmt, poly._tags = fmt, sums
    return poly


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
    """Sparse integer-coefficient polynomial in the B/C variables, kept as
    packed tags: a `TagFormat` and {tag: coefficient}, no coefficient zero.

    Made from {monomial: coefficient}, which it packs once, or by
    `tag_polynomial` from the summed tags of a walk, which it keeps as
    they are; `terms` decodes the tags on every read."""

    __slots__ = ("_fmt", "_tags")

    def __init__(self, terms: Optional[Mapping[WeightMonomial, int]] = None):
        self._fmt, self._tags = TagFormat.packing(
            {mono: coeff for mono, coeff in (terms or {}).items() if coeff}
        )

    @property
    def terms(self) -> dict[WeightMonomial, int]:
        """{monomial: coefficient}, decoded from the tags."""
        monomial = self._fmt.monomial
        return {monomial(tag): coeff for tag, coeff in self._tags.items()}

    def is_zero(self) -> bool:
        return not self._tags

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightPolynomial) and self.terms == other.terms

    def drop_c(self) -> "WeightPolynomial":
        """Specialize every C variable to 1: mask off each tag's C block and
        sum the coefficients of equal B blocks."""
        low = (1 << self._fmt.shift) - 1
        sums: dict[int, int] = {}
        for tag, coeff in self._tags.items():
            b = tag & low
            sums[b] = sums.get(b, 0) + coeff
        return tag_polynomial({b: coeff for b, coeff in sums.items() if coeff}, self._fmt)

    def evaluate(self, w: "WeightAssignment", modulus: Optional[int] = None) -> int:
        total = sum(
            coeff * mono.evaluate(w, modulus) for mono, coeff in self.terms.items()
        )
        return total % modulus if modulus is not None else total

    def _ordered(self, b_form: Callable, c_form: Callable) -> Iterator[tuple]:
        """(b_form(B pairs), c_form(C pairs), coefficient) of each term in
        print order: by the B block's (index, exponent) pairs, then by the
        C block's packed value, whose most significant slot is the highest
        C index, which orders the C pairs read from the highest index down.
        Each form is made once per distinct block."""
        fmt = self._fmt
        shift = fmt.shift
        low = (1 << shift) - 1
        by_b: dict[int, list[tuple[int, int]]] = {}
        for tag, coeff in self._tags.items():
            by_b.setdefault(tag & low, []).append((tag >> shift, coeff))
        b_pairs = {b: fmt.pairs(b) for b in by_b}
        c_forms: dict[int, object] = {}
        for b in sorted(by_b, key=b_pairs.__getitem__):
            b_made = b_form(b_pairs[b])
            for c, coeff in sorted(by_b.pop(b)):
                c_made = c_forms.get(c)
                if c_made is None:
                    c_made = c_forms[c] = c_form(fmt.pairs(c))
                yield b_made, c_made, coeff

    def text_pieces(self) -> Iterator[str]:
        """The print form one term at a time, each after the first led by
        ' + ' or ' - ', so that a long polynomial can be written out
        without being held as one string."""
        lead = ("", "-")
        terms = self._ordered(partial(_factors, "B"), lambda pairs: _factors("C", pairs[::-1]))
        for b, c, coeff in terms:
            mono = f"{b}*{c}" if b and c else b or c
            size = abs(coeff)
            body = mono if size == 1 and mono else f"{size}*{mono}" if mono else str(size)
            yield lead[coeff < 0] + body
            lead = (" + ", " - ")
        if not lead[0]:
            yield "0"

    def json_pieces(self) -> Iterator[str]:
        """The JSON form one term at a time: the list of the terms in
        `text` order, each {"coeff": decimal string, "b": {"index":
        exponent}, "c": {"index": exponent}}, as the bytes of
        `json.dumps(..., indent=2)` where the list is the value of a key of
        the top-level object."""
        lead = "[\n    "
        for b, c, coeff in self._ordered(_json_block, _json_block):
            yield f'{lead}{{\n      "coeff": "{coeff}",\n      "b": {b},\n      "c": {c}\n    }}'
            lead = ",\n    "
        yield "[]" if lead[0] == "[" else "\n  ]"

    def text(self) -> str:
        return "".join(self.text_pieces())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"WeightPolynomial({self.text()})"


def _json_block(pairs) -> str:
    """One block's {"index": exponent} object, indented as in a term of
    `WeightPolynomial.json_pieces`."""
    if not pairs:
        return "{}"
    items = ",\n".join(f'        "{i}": {e}' for i, e in pairs)
    return f"{{\n{items}\n      }}"


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
