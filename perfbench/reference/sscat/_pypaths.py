"""Pure-Python enumeration kernel.

Twin of the compiled extension `_fastpaths`; both expose the same
`stat_histograms` function and must produce identical results.  The
backend module picks whichever is available (or forced) at import time.
"""

from __future__ import annotations


def stat_histograms(k: int, n: int) -> tuple[dict[int, int], dict[int, int]]:
    """Histograms of (maximum semisymmetric height, semisymmetric peak
    count) over all balanced ballot paths of length k*n.

    Returns (height_histogram, peak_histogram), each a dict from statistic
    value to the number of paths attaining it.
    """
    if k < 2 or n < 0:
        raise ValueError(f"need k >= 2 and n >= 0, got k={k}, n={n}")
    if n == 0:
        return {0: 1}, {0: 1}
    coeffs = [k + 1 - 2 * i for i in range(1, k + 1)]
    up = k // 2
    down_start = (k + 1) // 2 + 1
    total = k * n
    counts = [0] * (k + 1)
    height_hist: dict[int, int] = {}
    peak_hist: dict[int, int] = {}

    def rec(depth: int, g: int, gmax: int, prev: int, peaks: int) -> None:
        if depth == total:
            height_hist[gmax] = height_hist.get(gmax, 0) + 1
            peak_hist[peaks] = peak_hist.get(peaks, 0) + 1
            return
        for d in range(1, k + 1):
            if counts[d] >= n or (d > 1 and counts[d] >= counts[d - 1]):
                continue
            g2 = g + coeffs[d - 1]
            counts[d] += 1
            rec(
                depth + 1,
                g2,
                g2 if g2 > gmax else gmax,
                d,
                peaks + (1 if prev and prev <= up and d >= down_start else 0),
            )
            counts[d] -= 1

    rec(0, 0, 0, 0, 0)
    return height_hist, peak_hist
