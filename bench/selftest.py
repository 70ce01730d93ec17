"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
a corrupted golden value makes the correctness gate fail jobs, and that the
benchmark refuses to run without the package sources. Short runs (one
second each); about a minute in all. Scratch files go to .bench_out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 180

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [*SPEC["command"], "--seconds", "1", *args]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1]) if lines else {}


def check_metrics(result: dict, spec: list[dict], what: str) -> None:
    metrics = result.get("metrics", {})
    for m in spec:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float)),
              f"{what}: {m['name']} printed in {m['unit']}")
    check(set(metrics) == {m["name"] for m in spec}, f"{what}: no metric beyond the spec")


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    for w in SPEC["workloads"]:
        rc, lines = bench("--workload", w["name"], "--seed", "0", "--trace", "0")
        result = result_of(lines)
        check(rc == 0 and result.get("correct") is True and result.get("failed") == 0,
              f"{w['name']}: exit 0, correct, no failed job")
        check_metrics(result, SPEC["end_to_end"], w["name"])
        check(all(v["value"] > 0 for v in result.get("metrics", {}).values()),
              f"{w['name']}: every end-to-end metric is above 0")

    rc, lines = bench("--workload", "mc-dense", "--seed", "0", "--trace", "1")
    result = result_of(lines)
    check(rc == 0 and result.get("correct") is True, "traced run: exit 0 and correct")
    check_metrics(result, SPEC["per_layer"], "traced run")

    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    golden["exact-oracles"]["sme clique:5 n=20"] += "1"
    key = "scan clique:5 n=40 seed=0"
    golden["mc-scan"][key] = golden["mc-scan"][key].replace("type1=", "type1=1")
    corrupt = OUT_DIR / "golden-corrupted.json"
    corrupt.write_text(json.dumps(golden), encoding="utf-8")
    for workload in ("exact-oracles", "mc-scan"):
        rc, lines = bench("--workload", workload, "--seed", "0", "--trace", "0",
                          "--golden", str(corrupt))
        result = result_of(lines)
        check(rc == 0 and result.get("failed", 0) > 0 and result.get("correct") is False,
              f"{workload}: a corrupted golden value fails jobs")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("--workload", "mc-dense", "--seed", "0", "--trace", "0", cwd=bare)
    check(rc != 0 and not (lines and lines[-1].startswith("{")),
          "without the package sources: nonzero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
