"""Linear recurrences with integer coefficients: find one, prove it, and
read its terms.

A recurrence a_n = q_1 a_{n-1} + ... + q_d a_{n-d} is the list
[q_1, ..., q_d]; its characteristic polynomial is
Q(x) = x^d - q_1 x^(d-1) - ... - q_d.  `minimal_recurrence` finds the
shortest one of a sequence from its first 2S terms, S the size of a matrix
whose orbit the sequence reads, and `proves` checks it over the integers.
`iterate` extends the head term by term, one d-term sum each.  `term`
jumps to a single a_n (Fiduccia, "An efficient formula for linear
recurrences", SIAM J. Comput. 1985): the functional L(x^j) = a_j is zero
on every multiple of Q, so with r = x^floor(n/2) mod Q and r' = x^ceil(n/2)
mod Q, a_n = L(r r') = sum_i r_i sum_j r'_j a_{i+j}: the short head terms
a_0, ..., a_{2d-2} take the place of the last and largest squaring, and
leave d products of long coefficients.  Polynomials are coefficient
lists, lowest degree first; each squaring is one big-integer squaring, by
Kronecker substitution.
"""

from __future__ import annotations

import math
from collections import deque
from operator import mul
from typing import Iterator, Optional

from .errors import FormulaViolationError

# Berlekamp-Massey runs modulo these primes, the 24 largest below 2^62.
# A prime that divides a discrepancy finds too short a recurrence; the
# capacity leaves room for two such primes.
PRIMES = tuple(
    (1 << 62) - d
    for d in (57, 87, 117, 143, 153, 167, 171, 195, 203, 273, 287, 317)
    + (443, 483, 495, 575, 581, 603, 633, 663, 765, 773, 777, 791)
)
CAPACITY = math.prod(PRIMES[2:])


def berlekamp_massey(terms: list[int], p: int) -> list[int]:
    """The shortest recurrence a_n = q_1 a_{n-1} + ... + q_L a_{n-L} that
    generates *terms*, residues mod the prime *p*, as [q_1, ..., q_L] mod p
    (Massey, 1969)."""
    c, b = [1], [1]  # connection polynomials: now and before the last lengthening
    length, gap, last = 0, 1, 1
    for n in range(len(terms)):
        delta = sum(map(mul, c, terms[n::-1])) % p
        if delta == 0:
            gap += 1
            continue
        scale = delta * pow(last, -1, p) % p
        previous = c
        c = c + [0] * (len(b) + gap - len(c))
        for i, x in enumerate(b):
            c[i + gap] = (c[i + gap] - scale * x) % p
        if 2 * length <= n:
            length, b, last, gap = n + 1 - length, previous, delta, 1
        else:
            gap += 1
    c += [0] * (length + 1 - len(c))
    return [-x % p for x in c[1 : length + 1]]


def proves(terms: list[int], size: int, q: list[int]) -> bool:
    """Whether a_n = q_1 a_{n-1} + ... + q_d a_{n-d} for every n >= d, where
    *terms* are a_0, ..., a_{2S-1} of the orbit of an S x S matrix T.

    The residual r_n = a_n - q_1 a_{n-1} - ... - q_d a_{n-d} (n >= d) is
    e_0^T P(T) T^(n-d) e_0 for a polynomial P, so the characteristic
    polynomial of T, of degree S, annihilates it too (Cayley-Hamilton):
    zero at n = d, ..., d + S - 1, it is zero for every n.  Those indices
    lie within the terms exactly when d <= S."""
    d = len(q)
    return len(terms) >= d + size and all(
        terms[n] == sum(map(mul, q, reversed(terms[n - d : n])))
        for n in range(d, len(terms))
    )


def minimal_recurrence(terms: list[int], size: int) -> list[int]:
    """The minimal integer recurrence [q_1, ..., q_d] of the counts whose
    first 2S *terms* are given, proved by `proves`.

    Berlekamp-Massey modulo each prime of `PRIMES` in turn only searches:
    its order never exceeds the true one, so the longest order seen wins,
    and primes that agree on it are combined by the Chinese remainder
    theorem into symmetric integer coefficients until those pass the
    proof.  Running out of primes raises `FormulaViolationError`."""
    order, modulus, lifted = -1, 1, []
    for p in PRIMES:
        found = berlekamp_massey([a % p for a in terms], p)
        if len(found) < order:
            continue
        if len(found) > order:
            order, modulus, lifted = len(found), 1, [0] * len(found)
        inverse = pow(modulus, -1, p)
        lifted = [x + modulus * ((r - x) * inverse % p) for x, r in zip(lifted, found)]
        modulus *= p
        q = [x - modulus if 2 * x > modulus else x for x in lifted]
        if proves(terms, size, q):
            return q
    raise FormulaViolationError(
        f"no recurrence found modulo {len(PRIMES)} primes is proved on the "
        f"first {len(terms)} counts (order <= {size})",
        expected=terms,
        actual=q,
    )


def iterate(
    terms: list[int], q: list[int], stop: int, modulus: Optional[int] = None
) -> Iterator[int]:
    """a_0, ..., a_{stop-1} (mod *modulus* when given) of the sequence that
    obeys *q* and starts with *terms*, at least d of them: the terms, then
    one d-term sum over a window of the last d per further term.  A
    modulus reduces the head and the coefficients once (`_reduced`), and
    each sum as it is appended."""
    head, q = _reduced(terms, q, modulus)
    yield from head[:stop]
    window = deque(head[-len(q) :], maxlen=len(q))
    reverse = q[::-1]
    for _ in range(stop - len(head)):
        a = sum(map(mul, reverse, window))
        if modulus is not None:
            a %= modulus
        window.append(a)
        yield a


def _reduced(
    terms: list[int], q: list[int], modulus: Optional[int]
) -> tuple[list[int], list[int]]:
    """*terms* mod *modulus* and the symmetric residues of *q*, no longer
    than the coefficients or m / 2, so that a product by one is never as
    long as m; both unchanged without a modulus."""
    if modulus is None:
        return terms, q
    half = modulus // 2
    return [a % modulus for a in terms], [(c + half) % modulus - half for c in q]


def _square(a: list[int]) -> list[int]:
    """The coefficients of the square of the polynomial *a*, from one
    big-integer squaring (Kronecker substitution).  No coefficient of the
    square reaches len(a) * max|a|^2 in absolute value, so a slot of that
    many bits and one more holds each with a bias of half a slot, which
    makes every slot non-negative: *a* packs from its biased coefficients'
    bytes less the bias of its slots, the square gains the bias of its
    own, and each slot unpacks from its bytes."""
    width = (2 * max(map(abs, a)).bit_length() + len(a).bit_length()) // 8 + 1
    half = 1 << (8 * width - 1)
    slot = bytes(width - 1) + b"\x80"  # half, little-endian
    biased = b"".join([(c + half).to_bytes(width, "little") for c in a])
    packed = int.from_bytes(biased, "little") - int.from_bytes(slot * len(a), "little")
    count = 2 * len(a) - 1
    square = packed * packed + int.from_bytes(slot * count, "little")
    data = square.to_bytes(width * count, "little")
    return [
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, width * count, width)
    ]


def _times_x(r: list[int], reverse: list[int], modulus: Optional[int]) -> list[int]:
    """x r mod Q (and mod *modulus* when given), for r of degree below d and
    *reverse* = [q_d, ..., q_1], the coefficients of x^d mod Q."""
    top = r[-1]
    out = [x + top * c for x, c in zip([0] + r[:-1], reverse)]
    return out if modulus is None else [x % modulus for x in out]


def power(q: list[int], e: int, modulus: Optional[int] = None) -> list[int]:
    """x^e mod Q (and mod *modulus* when given) as its d coefficients, by
    square-and-multiply from the top bit of *e*.  A square, of degree up to
    2d - 2, is reduced by the columns of x^d, ..., x^(2d-2) mod Q, found
    once: coefficient i of the result is p_i + sum_j p_(d+j) (x^(d+j) mod
    Q)_i, one dot product each."""
    d = len(q)
    reverse = q[::-1]
    rows = [reverse]
    while len(rows) < d - 1:
        rows.append(_times_x(rows[-1], reverse, modulus))
    columns = list(zip(*rows))
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        p = _square(r)
        high = p[d:] if modulus is None else [x % modulus for x in p[d:]]
        r = [x + sum(map(mul, column, high)) for x, column in zip(p, columns)]
        if modulus is not None:
            r = [x % modulus for x in r]
        if bit == "1":
            r = _times_x(r, reverse, modulus)
    return r


def term(terms: list[int], q: list[int], n: int, modulus: Optional[int] = None) -> int:
    """a_n (mod *modulus* when given) of the sequence that obeys *q* and
    starts with *terms*, at least 2d - 1 of them, by the Hankel form
    a_n = sum_i sum_j r_i r'_j a_{i+j} of the module docstring.  A modulus
    reduces the coefficients and the head first, and every product."""
    d = len(q)
    if len(terms) < 2 * d - 1:
        raise ValueError(f"need {2 * d - 1} head terms for order {d}, got {len(terms)}")
    head, q = _reduced(terms[: 2 * d - 1], q, modulus)
    r = power(q, n // 2, modulus)
    s = _times_x(r, q[::-1], modulus) if n % 2 else r
    a = sum(x * sum(map(mul, s, head[i : i + d])) for i, x in enumerate(r))
    return a if modulus is None else a % modulus
