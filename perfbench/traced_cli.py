"""Run one `sscat` command with every layer's public functions wrapped in
timing spans, then write the aggregated trace as JSON.

Usage: traced_cli.py <trace-out.json> <sscat arguments...>

The program is not changed: the wrappers are installed from here, around
the calls into each module, before `sscat.cli.main` runs.  A span's self
time is its duration minus the durations of the spans it encloses.  Spans
are summed per name rather than kept one by one, because the brute-force
layers make hundreds of thousands of calls.  Counts are taken from the
results the wrapped functions return, next to the span they explain.

Spans are timed in this process's CPU time, because the benchmark runs
the job interleaved with a twin process and stops it while the twin runs.
The CPU time spent before `sscat.cli.main` is called (interpreter start
and import) is reported as ``cli.startup_s``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import process_time as clock


class Tracer:
    """Stack of open spans plus per-name totals."""

    def __init__(self):
        self.stack: list[float] = []  # time covered by children of each open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.matrix_size: dict[tuple[int, int], int] = {}
        self.seen: set = set()

    def _close(self, name: str, start: float) -> None:
        elapsed = clock() - start
        self.self_s[name] += elapsed - self.stack.pop()
        self.calls[name] += 1
        if self.stack:
            self.stack[-1] += elapsed

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, counter):
        """Time each resume of a generator; consumer time is not counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self.stack.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, start)
                self.counts[counter] += 1
                yield item

        return wrapper

    # Counters read from results, keyed by the span they explain.

    def once(self, key) -> bool:
        """True the first time *key* is seen: the lru caches below are
        unbounded, so the first call per argument tuple is the one built."""
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def on_histograms(self, args, result):
        self.counts["backend.paths_visited"] += sum(result[0].values())

    def on_state_space(self, args, space):
        if self.once(("space", space.k, space.u)):
            self.counts["counting.states"] += len(space)

    def on_transfer(self, args, matrix):
        key = (matrix.space.k, matrix.space.u)
        self.matrix_size[key] = len(matrix.space)
        if self.once(("matrix",) + key):
            self.counts["counting.transfer_nonzeros"] += sum(
                not poly.is_zero() for row in matrix.entries for poly in row
            )

    def on_dp(self, args, result):
        # Every call site passes k, u, n positionally.
        k, u, n = args[:3]
        size = self.matrix_size[(k, u)]
        self.counts["counting.dp_mults"] += n * size * size

    def on_evaluate(self, args, result):
        self.counts["weights.polynomial_terms"] += len(args[0].terms)

    def on_period(self, args, report):
        self.counts["periodicity.orbit_steps"] += report.preperiod + report.vector_period


def install(tracer: Tracer):
    """Wrap each layer's entry points wherever the package refers to them.

    Returns the CLI module and the `lru_cache` objects (state space,
    transfer matrix, histograms) whose `cache_info()` is summed at exit."""
    from sscat import backend, cli, counting, oeis, paths, periodicity, triangles, weights

    modules = [backend, cli, counting, oeis, paths, periodicity, triangles, weights]

    def replace(original, wrapped):
        for module in modules:
            for key, value in vars(module).items():
                if value is original:
                    setattr(module, key, wrapped)
        return original

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        return replace(original, tracer.wrap(name, original, after))

    patch(backend, "stat_histograms", "backend.stat_histograms", tracer.on_histograms)
    replace(
        paths.enumerate_paths,
        tracer.wrap_generator("paths.enumerate_paths", paths.enumerate_paths, "paths.paths_yielded"),
    )
    patch(weights, "sswt", "weights.sswt")
    weights.WeightPolynomial.evaluate = tracer.wrap(
        "weights.evaluate", weights.WeightPolynomial.evaluate, tracer.on_evaluate
    )
    caches = [
        patch(counting, "build_state_space", "counting.build_state_space", tracer.on_state_space),
        patch(counting, "_transfer_matrix", "counting.transfer_build", tracer.on_transfer),
        triangles._histograms,
    ]
    counting.TransferMatrix.evaluated = tracer.wrap(
        "counting.evaluated", counting.TransferMatrix.evaluated
    )
    patch(counting, "bounded_sswcn_dp", "counting.dp", tracer.on_dp)
    patch(counting, "sswcn_brute", "counting.sswcn_brute")
    patch(counting, "bounded_sswcn_brute", "counting.bounded_sswcn_brute")
    for fn in ("height_triangle_row", "narayana_row", "run_verifiers", "scan_power_of_two"):
        patch(triangles, fn, f"triangles.{fn}")
    patch(
        periodicity,
        "detect_eventual_period",
        "periodicity.detect_eventual_period",
        tracer.on_period,
    )
    patch(oeis, "fetch_bfile", "oeis.fetch_bfile")
    patch(oeis, "compare_sequences", "oeis.compare_sequences")
    return cli, caches


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import sscat.cli  # noqa: F401  (the import is part of start-up, as for the CLI)

    installing = clock()
    cli, caches = install(tracer)
    code = 2
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        infos = [cache.cache_info() for cache in caches]
        trace = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": {
                **tracer.counts,
                "counting.cache_hits": sum(info.hits for info in infos),
                "counting.cache_misses": sum(info.misses for info in infos),
            },
            "startup_s": installing,
        }
        with open(out_path, "w") as handle:
            json.dump(trace, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
