"""Run every workload and print all metrics with their units.

    python3 bench/report.py                      # each workload once, then the traced run
    python3 bench/report.py --runs 10 --seed 1   # ten seeds each: median and spread

Each run is its own process (``run.py``), so ``peak_rss_mb`` is that run's
own. With ``--runs N`` the seeds are seed, seed+1, ..., and the spread of a
metric is the distance between its first and third quartile over its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median); the spread is 0 for a single value."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = ap.parse_args(argv)

    all_correct = True
    for workload in args.workloads:
        results = [run_once(workload, args.seed + r, args.seconds, 0)[0] for r in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"## {workload}: {args.runs} run(s) from seed {args.seed}, "
              f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(values)
            print(f"{name:16s} {med:14.6g} {first['unit']:6s} spread {rel:8.4f}  "
                  + " ".join(f"{v:.6g}" for v in values))
    if not args.no_trace:
        result, lines = run_once("mc-dense", args.seed, args.seconds, 1)
        all_correct &= result["correct"]
        print("## traced run (per-layer metrics)")
        print("\n".join(lines))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
