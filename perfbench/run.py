"""End-to-end benchmark of the `sscat` CLI, with an optional traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Each job of the workload (see `jobs.py`) runs as its own child process of
the real CLI, one job at a time: a closed loop with one client.  A job
therefore costs what a user pays, including interpreter start,
`import sscat` and cold caches.  The job list is run in passes, reshuffled
by the seed each pass, until another pass would not fit in `--seconds`.
Every job runs interleaved with a twin, the same command run against a
frozen copy of the package (`reference/`): both children exist at once,
but only one of them runs at any moment.  Times are reported in reference
seconds (see REFERENCE_PASS_S).  Every output is checked after the timed
passes, against answers the frozen copy computes in this process; a wrong
answer counts as a failure, not as a data point.

Each child runs under an address-space limit (`setrlimit`, applied to the
child only), and a job and its twin together under a wall-clock timeout.
A job over budget is killed and counts as failed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates plain
and traced passes; traced passes run the jobs through `traced_cli.py`,
which wraps each layer's public functions, and report per-layer self
times and counts per pass, plus `tracing_overhead`: each traced job runs
interleaved with a plain twin, and the overhead is the traced time over
the twins' time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
a readable summary and the run's provenance (backend, Python, nproc,
commit, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from jobs import SETUP_ARGV, SETUP_OUTPUT, WORKLOADS, Job, Oracle

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Wall clock allowed to a job and its twin together (each runs half the time).
JOB_TIMEOUT_S = 60.0
JOB_ADDRESS_SPACE = 1 << 30
# No job is started or left running past this point, so that a run with
# hanging jobs still ends well inside 180 s, checks included.
RUN_DEADLINE_S = 130.0
SETUP_PROBES = 12
# A job and its twin take turns on the CPU in slices of this length.
SLICE_S = 0.02

# The speed of the 2-core VM this was developed on shifts by up to 1.5x in
# phases lasting seconds to minutes (other tenants' load), so raw times
# of one run spread too widely to compare commits.  Every job and set-up
# probe therefore runs interleaved with a twin, the same command run
# against `reference/sscat`, a frozen copy of the package at commit
# a9ac8ae: the two take turns on the CPU every SLICE_S, so both see the
# same machine speed, and each is timed by its own CPU time (these jobs
# are single-threaded and CPU-bound, so that is their wall time when run
# alone).  Run back to back instead, a 9 s job and its twin differed by
# up to 15%; interleaved, by under 1%.  Times are reported in reference
# seconds: raw time x (REFERENCE_* constant / the paired reference time).  The
# constants are fixed scale factors that only set the unit: round figures
# from early runs on that VM.  `baseline-a9ac8ae.json` stores the twins'
# raw medians beside them (key `twins`).  A change to the program moves
# the raw time but not its twin.
REFERENCE_PASS_S = {"tables": 8.5, "bounded": 4.2, "period": 10.0}
REFERENCE_SETUP_S = 0.10
# The median job rests on one or two samples of a sub-second job per run,
# so its spread over ten seeds (0.27 on `tables` and `period`) is wider
# than any bound allows; it is reported with the ungated per-layer metrics.
UNGATED = ("job_s.p50",)

# Per-layer spans whose self time is reported, by span name.
SPANS = (
    "backend.stat_histograms",
    "paths.enumerate_paths",
    "weights.sswt",
    "weights.evaluate",
    "counting.build_state_space",
    "counting.transfer_build",
    "counting.evaluated",
    "counting.dp",
    "counting.sswcn_brute",
    "counting.bounded_sswcn_brute",
    "triangles.height_triangle_row",
    "triangles.narayana_row",
    "triangles.run_verifiers",
    "triangles.scan_power_of_two",
    "periodicity.detect_eventual_period",
    "oeis.fetch_bfile",
    "oeis.compare_sequences",
    "cli.main",
)
COUNTS = (
    "backend.paths_visited",
    "paths.paths_yielded",
    "weights.polynomial_terms",
    "counting.states",
    "counting.transfer_nonzeros",
    "counting.dp_mults",
    "counting.cache_hits",
    "counting.cache_misses",
    "periodicity.orbit_steps",
)


@dataclass
class Outcome:
    job: Job
    seconds: float  # CPU time (user + system) of the child
    rss_mb: float
    status: str  # "ok", "exit <code>" or "timeout"
    stdout: str
    stderr: str
    trace: Optional[dict] = None
    error: Optional[str] = None  # set by the answer check

    @property
    def failed(self) -> bool:
        return self.status != "ok" or self.error is not None


@dataclass
class Pass:
    traced: bool
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    # The same jobs' twins: run against the frozen copy
    # in a plain pass, plain (untraced) in a traced pass.
    twin_seconds: float = 0.0


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (JOB_ADDRESS_SPACE, JOB_ADDRESS_SPACE))


class Runner:
    """Runs a job and its twin as two children that take turns on the CPU,
    under the job budget, and waits for both."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            # Keep b-file lookups inside the checkout (bundled fixtures).
            OEIS_CACHE_DIR=str(work / "oeis-cache"),
            # Bytecode for both trees is written, and read, under one
            # prefix, so neither the program nor its reference twin
            # compiles its sources on every call, and neither profits
            # from stale caches beside the sources.
            PYTHONPYCACHEPREFIX=str(work / "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.trace_path = work / "trace.json"

    def command(self, job: Job, traced: bool, reference: bool) -> tuple[list[str], dict]:
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), str(self.trace_path), *job.argv], self.env
        env = dict(self.env, PYTHONPATH=str(HERE / "reference")) if reference else self.env
        return [sys.executable, "-m", "sscat.cli", *job.argv], env

    def run_pair(self, job: Job, first: int, traced: bool = False) -> tuple[Outcome, float]:
        """Run *job* and its twin, and return the job's outcome and the
        twin's CPU time.  The twin of a plain job runs against the frozen
        copy; that of a traced job, plain.

        Only one of the two runs at a time: they swap every SLICE_S
        (SIGSTOP/SIGCONT), child *first* % 2 first, so both see the same
        machine speed, and each is timed by its own CPU time."""
        commands = [self.command(job, traced, False), self.command(job, False, not traced)]
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with tempfile.TemporaryDirectory(dir=self.work) as tmp:
            files = [open(Path(tmp) / name, "w+b") for name in ("out0", "err0", "out1", "err1")]
            procs: list[subprocess.Popen] = []
            try:
                for i, (cmd, env) in enumerate(commands):
                    procs.append(
                        subprocess.Popen(
                            cmd,
                            stdin=subprocess.DEVNULL,
                            stdout=files[2 * i],
                            stderr=files[2 * i + 1],
                            cwd=ROOT,
                            env=env,
                            preexec_fn=_limit_address_space,
                        )
                    )
                    os.kill(procs[-1].pid, signal.SIGSTOP)
                ended, killed = _take_turns(procs, first % 2, timeout)
            finally:
                for proc in procs:
                    if proc.returncode is None:
                        proc.kill()
                        proc.wait()
            outputs = []
            for handle in files:
                handle.seek(0)
                outputs.append(handle.read().decode(errors="replace"))
                handle.close()
        (status, usage), (_, twin_usage) = ended
        code = os.waitstatus_to_exitcode(status)
        if killed and code == -signal.SIGKILL:
            verdict = "timeout"
        else:
            verdict = "ok" if code == 0 else f"exit {code}"
        trace = None
        if traced and self.trace_path.exists():
            try:
                trace = json.loads(self.trace_path.read_text())
            except ValueError:  # a child killed while writing it
                pass
            self.trace_path.unlink()
        outcome = Outcome(
            job, _cpu_seconds(usage), usage.ru_maxrss / 1024, verdict, outputs[0], outputs[1], trace
        )
        return outcome, _cpu_seconds(twin_usage)


def _cpu_seconds(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _take_turns(procs: list[subprocess.Popen], turn: int, timeout: float):
    """Let the stopped *procs* run one at a time, in turns of SLICE_S,
    until all have exited; kill the rest after *timeout* seconds.  Return
    each one's wait status and resource usage, and whether any was killed."""
    ended: list[Optional[tuple[int, resource.struct_rusage]]] = [None] * len(procs)
    deadline = time.monotonic() + timeout
    killed = False
    while None in ended:
        live = [i for i, e in enumerate(ended) if e is None]
        if time.monotonic() > deadline and not killed:
            killed = True
            for i in live:
                os.kill(procs[i].pid, signal.SIGKILL)
        # os.kill rather than Popen.send_signal, which may reap the child
        # before os.wait4 below can read its resource usage.
        turn = turn if turn in live else live[0]
        for i in live:
            if i != turn:
                os.kill(procs[i].pid, signal.SIGSTOP)
        os.kill(procs[turn].pid, signal.SIGCONT)
        time.sleep(SLICE_S)
        for i in live:
            pid, status, usage = os.wait4(procs[i].pid, os.WNOHANG)
            if pid:
                ended[i] = (status, usage)
                procs[i].returncode = os.waitstatus_to_exitcode(status)
        turn = (turn + 1) % len(procs)
    return ended, killed


@dataclass
class Measurements:
    passes: list[Pass]
    setup: list[Outcome]
    setup_reference: list[float]


def measure(
    runner: Runner,
    jobs: list[Job],
    setup_job: Job,
    rng: random.Random,
    seconds: float,
    trace: bool,
) -> Measurements:
    """Run whole passes over the job list until another would not fit.

    Between jobs, about every `seconds / SETUP_PROBES`, the set-up probe
    runs, so its samples spread over the whole run.  Plain jobs and probes
    run with reference twins, traced jobs with plain ones.  A pass's time
    is the sum of its jobs' times."""
    runner.run_pair(setup_job, 0)  # untimed: writes the bytecode caches a user's install has
    m = Measurements([], [], [])

    def probe() -> None:
        outcome, reference = runner.run_pair(setup_job, len(m.setup))
        m.setup.append(outcome)
        m.setup_reference.append(reference)

    start = next_probe = time.perf_counter()
    spans: list[float] = []
    while True:
        traced = trace and len(m.passes) % 2 == 1
        order = list(jobs)
        rng.shuffle(order)
        begun = time.perf_counter()
        p = Pass(traced, 0.0)
        for index, job in enumerate(order):
            if time.perf_counter() >= next_probe:
                probe()
                next_probe = time.perf_counter() + seconds / SETUP_PROBES
            outcome, twin = runner.run_pair(job, index + len(m.passes), traced)
            p.outcomes.append(outcome)
            p.seconds += outcome.seconds
            p.twin_seconds += twin
        m.passes.append(p)
        spans.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - start
        both = not trace or len(m.passes) >= 2
        if time.monotonic() > runner.deadline or (
            both and elapsed + statistics.median(spans) > seconds
        ):
            break
    while len(m.setup) < SETUP_PROBES:
        probe()
    return m


def check_outcomes(passes: list[Pass]) -> None:
    """Check each distinct output once; set `error` on wrong answers."""
    verdicts: dict[tuple[str, str], Optional[str]] = {}
    for p in passes:
        for o in p.outcomes:
            if o.status != "ok":
                continue
            key = (o.job.name, o.stdout)
            if key not in verdicts:
                try:
                    verdicts[key] = o.job.check(o.stdout)
                except Exception as exc:  # an unparsable answer is a wrong one
                    verdicts[key] = f"check raised {exc!r}"
            o.error = verdicts[key]


def end_to_end(m: Measurements, workload: str) -> tuple[dict, list[str]]:
    plain = [p for p in m.passes if not p.traced]
    jobs = [o for p in plain for o in p.outcomes]
    every = [o for p in m.passes for o in p.outcomes]
    failed = sum(o.failed for o in every)
    # Each pass's scale to reference seconds, from its reference twins.
    scales = [REFERENCE_PASS_S[workload] / p.twin_seconds for p in plain]
    setup = statistics.median(
        REFERENCE_SETUP_S * o.seconds / ref for o, ref in zip(m.setup, m.setup_reference)
    )
    wall = statistics.median(p.seconds * s for p, s in zip(plain, scales))
    job = statistics.median(o.seconds * s for p, s in zip(plain, scales) for o in p.outcomes)
    raw_setup = statistics.median(o.seconds for o in m.setup)
    metrics = {
        "setup_s": (setup, "s", f"median of {len(m.setup)} `{' '.join(SETUP_ARGV)}` calls, raw {raw_setup:.4f}"),
        "wall_s": (
            wall,
            "s",
            f"median of {len(plain)} passes; raw "
            + " ".join(f"{p.seconds:.3f}" for p in plain)
            + ", reference "
            + " ".join(f"{p.twin_seconds:.3f}" for p in plain),
        ),
        "job_s.p50": (job, "s", f"median of {len(jobs)} jobs, raw {statistics.median(o.seconds for o in jobs):.4f}"),
        "peak_rss_mb": (max(o.rss_mb for o in jobs), "MB", f"highest child peak RSS of {len(jobs)} jobs"),
        "ok_ratio": (
            1 - failed / len(every),
            "ratio",
            f"fail_ratio {failed / len(every):.4f}: {failed} of {len(every)} jobs failed",
        ),
    }
    lines = [f"  {name:<13} {value:>12.4f} {unit:<5}  {note}" for name, (value, unit, note) in metrics.items()]
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}, lines


def per_layer(m: Measurements) -> tuple[dict, list[str]]:
    """Per-layer self times and counts, per traced pass."""
    traced = [p for p in m.passes if p.traced]
    n = len(traced)
    self_s = {name: 0.0 for name in SPANS}
    sswt_calls = 0.0
    counts = {name: 0.0 for name in COUNTS}
    startup = []
    for o in (o for p in traced for o in p.outcomes):
        if o.trace is None:
            continue
        for name in SPANS:
            self_s[name] += o.trace["self_s"].get(name, 0.0) / n
        sswt_calls += o.trace["calls"].get("weights.sswt", 0) / n
        for name in COUNTS:
            counts[name] += o.trace["counts"].get(name, 0) / n
        startup.append(o.trace["startup_s"])
    traced_wall = statistics.median(p.seconds for p in traced)
    plain_wall = statistics.median(p.twin_seconds for p in traced)
    overhead = statistics.median(p.seconds / p.twin_seconds for p in traced)

    def rate(count: str, span: str) -> float:
        return counts[count] / self_s[span] if self_s[span] else 0.0

    metrics = {f"{name}.self_s": (value, "s") for name, value in self_s.items()}
    metrics["weights.sswt.calls"] = (sswt_calls, "count")
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["backend.paths_per_s"] = (rate("backend.paths_visited", "backend.stat_histograms"), "1/s")
    metrics["periodicity.steps_per_s"] = (
        rate("periodicity.orbit_steps", "periodicity.detect_eventual_period"),
        "1/s",
    )
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["tracing_overhead"] = (overhead, "ratio")
    lines = [
        f"  traced pass {traced_wall:.3f} s, its plain twins {plain_wall:.3f} s (raw), "
        f"{n} traced passes; values are per traced pass",
    ]
    for name, value in sorted(self_s.items(), key=lambda item: -item[1]):
        if value:
            lines.append(
                f"  {name + '.self_s':<44} {value:>10.4f} s  {100 * value / traced_wall:5.1f}% of traced wall"
            )
    outside = traced_wall - sum(self_s.values())
    lines.append(f"  {'(outside spans: start-up, exit)':<44} {outside:>10.4f} s")
    for name, (value, unit) in metrics.items():
        if not name.endswith(".self_s"):
            lines.append(f"  {name:<44} {value:>14.4f} {unit}")
    return metrics, lines


def provenance(runner: Runner, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sscat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    backend = subprocess.run(
        [sys.executable, "-c", "import sscat; print(sscat.ACTIVE_BACKEND)"],
        cwd=ROOT, env=runner.env, capture_output=True, text=True,
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "active_backend": backend.stdout.strip() or None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "sscat" / "cli.py").is_file():
        print(f"error: no sscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The answers are checked against the frozen copy, never against the
    # program under test, so a defect in a shared routine cannot agree
    # with itself.
    sys.path.insert(0, str(HERE / "reference"))
    import sscat as reference

    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started + RUN_DEADLINE_S)
    info = provenance(runner, args)
    rng = random.Random(args.seed)
    jobs = WORKLOADS[args.workload](rng, Oracle(reference, HERE / "reference" / "sscat" / "fixtures"))

    setup_job = Job(SETUP_ARGV, lambda out: None if out == SETUP_OUTPUT else "wrong output")
    m = measure(runner, jobs, setup_job, rng, args.seconds, bool(args.trace))
    check_outcomes(m.passes + [Pass(False, 0.0, m.setup)])

    every = [o for p in m.passes for o in p.outcomes]
    failed = [o for o in every if o.failed]
    correct = not any(o.error for o in every + m.setup) and all(o.status == "ok" for o in m.setup)
    e2e, e2e_lines = end_to_end(m, args.workload)
    print(
        f"workload {args.workload}  seed {args.seed}  backend {info['active_backend']}  "
        f"python {info['python']}  nproc {info['nproc']}  commit {info['commit']}"
    )
    print("\n".join(e2e_lines))
    if args.trace:
        metrics, layer_lines = per_layer(m)
        metrics.update({name: e2e[name] for name in UNGATED})
        print("\n".join(layer_lines))
    else:
        metrics = {name: value for name, value in e2e.items() if name not in UNGATED}
    reasons = Counter(
        (o.job.name, o.error or f"{o.status}: {(o.stderr.strip().splitlines() or [''])[-1]}")
        for o in failed
    )
    for (name, reason), times in reasons.items():
        print(f"  failed {times}x: {name}: {reason}")
    print("provenance " + json.dumps(info))
    plain = [p for p in m.passes if not p.traced]
    twins = {
        "setup_s": statistics.median(m.setup_reference),
        "pass_s": statistics.median(p.twin_seconds for p in plain),
    }
    print("twins " + json.dumps(twins))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(every),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
