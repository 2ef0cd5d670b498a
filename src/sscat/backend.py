"""Height and peak histograms of balanced ballot paths by the lattice DP.

`ACTIVE_BACKEND` names the implementation for run provenance; there is
only the pure-Python one.
"""

from __future__ import annotations

from .paths import StepKind, lattice_sum

ACTIVE_BACKEND = "python"


def height_histogram(k: int, n: int) -> dict[int, int]:
    """Number of balanced ballot paths of length k*n by maximum
    semisymmetric height; each point is tagged with the running maximum."""

    def step(vector, kind, g, g2):
        return ((gmax if gmax > g2 else g2, c) for gmax, c in vector.items())

    return lattice_sum(k, n, {0: 1}, step)


def peak_histogram(k: int, n: int) -> dict[int, int]:
    """Number of balanced ballot paths of length k*n by semisymmetric peak
    count; each point is tagged with (last step was up, peaks so far)."""

    def step(vector, kind, g, g2):
        is_up, is_down = kind is StepKind.UP, kind is StepKind.DOWN
        return (
            ((is_up, peaks + 1 if was_up and is_down else peaks), c)
            for (was_up, peaks), c in vector.items()
        )

    histogram: dict[int, int] = {}
    for (_, peaks), c in lattice_sum(k, n, {(False, 0): 1}, step).items():
        histogram[peaks] = histogram.get(peaks, 0) + c
    return histogram


def stat_histograms(k: int, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """(height_histogram, peak_histogram) of the balanced ballot paths of
    length k*n, each a dict from statistic value to the number of paths
    attaining it."""
    return height_histogram(k, n), peak_histogram(k, n)
