"""Height and peak histograms of balanced ballot paths by the lattice DP:
rows 0..n of each statistic from one walk of the box [0, n]^k, read off
its diagonal.  `ACTIVE_BACKEND` names the implementation for run
provenance; there is only the pure-Python one.
"""

from __future__ import annotations

from .paths import StepKind, lattice_diagonal

ACTIVE_BACKEND = "python"


def height_histograms(k: int, n: int) -> list[dict[int, int]]:
    """Number of balanced ballot paths of length k*m by maximum
    semisymmetric height, for m = 0..n; each point is tagged with the
    running maximum."""

    def step(vector, kind, g, g2):
        return ((gmax if gmax > g2 else g2, c) for gmax, c in vector.items())

    return lattice_diagonal(k, n, {0: 1}, step)


def peak_histograms(k: int, n: int) -> list[dict[int, int]]:
    """Number of balanced ballot paths of length k*m by semisymmetric peak
    count, for m = 0..n; each point is tagged with (last step was up,
    peaks so far).  A balanced path ends with a step in direction k, a
    down step, so at each diagonal point one tag holds each peak count."""

    def step(vector, kind, g, g2):
        is_up, is_down = kind is StepKind.UP, kind is StepKind.DOWN
        return (
            ((is_up, peaks + 1 if was_up and is_down else peaks), c)
            for (was_up, peaks), c in vector.items()
        )

    diagonal = lattice_diagonal(k, n, {(False, 0): 1}, step)
    return [{peaks: c for (_, peaks), c in vector.items()} for vector in diagonal]


def stat_histograms(k: int, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """(height histogram, peak histogram) of the balanced ballot paths of
    length k*n, each a dict from statistic value to the number of paths
    attaining it: the last rows of the two walks."""
    return height_histograms(k, n)[n], peak_histograms(k, n)[n]
