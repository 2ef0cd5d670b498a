"""Run the benchmark over several seeds and summarise it per workload.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--trace] [--out perfbench/baseline-<commit>.json]

For each workload of BENCHMARK.json it runs `perfbench/run.py` once for
each of the seeds 1..SEEDS, one run at a time, with its `run_seconds`.
It prints, per workload and end-to-end metric, the median and quartiles
over the seeds and the quartile spread as a share of the median, next to
the metric's bound, and `fail_ratio` (failed / attempted).  With `--trace` it adds one traced run
per workload (first seed) and prints its per-layer metrics.  `--out`
stores every run's result, provenance and reference-twin medians with the
summary, and the median of those twin medians per workload (`twins`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-500:]}")
    tagged = {
        tag: json.loads(rest)
        for tag, _, rest in (line.partition(" ") for line in lines)
        if tag in ("provenance", "twins")
    }
    return {"workload": workload, "seed": seed, "trace": trace,
            "provenance": tagged.get("provenance"), "twins": tagged.get("twins"),
            "result": json.loads(lines[-1])}


def summarise(spec: dict, runs: list[dict]) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": metric["bound"],
        }
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    summary["fail_ratio"] = {"unit": "ratio", "median": failed / attempted}
    summary["correct"] = all(r["result"]["correct"] for r in runs)
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = range(1, SEEDS + 1)
    report = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        summary = summarise(spec, runs)
        twins = {key: statistics.median(r["twins"][key] for r in runs) for key in runs[0]["twins"]}
        print(f"{workload}: {len(runs)} seeds, correct={summary['correct']}, "
              f"reference twins' raw medians: setup {twins['setup_s']:.4f} s, pass {twins['pass_s']:.3f} s")
        for name, row in summary.items():
            if name == "correct":
                continue
            if "q1" in row:
                flag = "" if row["spread"] < row["bound"] / 3 else "  <-- spread above bound/3"
                print(f"  {name:<12} {row['median']:>10.4f} {row['unit']:<5} "
                      f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} spread {row['spread']:.4f} "
                      f"(bound {row['bound']}){flag}")
            else:
                print(f"  {name:<12} {row['median']:>10.4f} {row['unit']}")
        entry = {"summary": summary, "twins": twins, "runs": runs}
        if args.trace:
            traced = run_once(spec, workload, seeds[0], 1)
            entry["traced"] = traced
            print(f"  traced run, seed {seeds[0]}:")
            for name, metric in traced["result"]["metrics"].items():
                print(f"    {name:<44} {metric['value']:>14.4f} {metric['unit']}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
