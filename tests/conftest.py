import json
import random

from sscat import WeightAssignment


def random_assignment(
    rng: random.Random, lo: int = -5, hi: int = 5, length: int = 8
) -> WeightAssignment:
    """A seeded random weight assignment with bounded integer entries."""
    return WeightAssignment(
        b_prefix=tuple(rng.randint(lo, hi) for _ in range(length)),
        b_fill=rng.randint(lo, hi),
        c_prefix=tuple(rng.randint(lo, hi) for _ in range(length)),
        c_fill=rng.randint(lo, hi),
    )


def json_document(k: int, n: int, poly) -> str:
    """The document of `sscat sswcn k n --symbolic --format json` for the
    polynomial *poly*, by `json.dumps`: its terms, decoded from `.terms`,
    in print order (by B pairs, then by C pairs read from the highest
    index down), coefficients as decimal strings."""
    order = sorted(poly.terms.items(), key=lambda item: (item[0].b, item[0].c[::-1]))
    terms = [
        {"coeff": str(coeff), "b": {str(i): e for i, e in mono.b}, "c": {str(j): e for j, e in mono.c}}
        for mono, coeff in order
    ]
    return json.dumps({"k": k, "n": n, "polynomial": terms}, indent=2)
