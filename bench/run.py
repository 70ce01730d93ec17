"""Benchmark of plantedlab: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload mc-dense --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.

With ``--trace 0`` the run repeats the workload's fixed job list (one pass)
for ``--seconds``, timing every job next to a reference kernel, and reports
the end-to-end metrics: ``setup_s`` (median over fresh processes),
``wall_s`` (one pass), ``items_per_s`` (trials, oracle calls or graphs per
second of ``wall_s``) and ``peak_rss_mb``. Times are scaled by the reference
kernel (see :class:`Reference`) so that the machine's drifting speed cancels.

With ``--trace 1`` it runs the traced census instead: one untraced and one
traced pass of every workload, then more pairs of the chosen workload until
``--seconds`` are used, and reports the per-layer metrics.
Either way, every output is checked and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record-golden`` rewrites ``bench/golden.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
WORKLOAD_NAMES = ("mc-dense", "mc-scan", "exact-oracles", "exhaustive-n6")
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default="mc-dense")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", type=Path, default=GOLDEN, help="golden outputs to check against")
    ap.add_argument("--record-golden", action="store_true", help="rewrite the golden file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_workloads():
    """Import the package from this checkout's src/ and the job lists."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    import plantedlab

    if Path(plantedlab.__file__).resolve().parent != SRC / "plantedlab":
        raise ImportError(f"plantedlab imported from {plantedlab.__file__}, not {SRC}")
    return workloads


def setup(name: str, seed: int):
    """Import, build the workload's inputs and run one warm-up job."""
    wl = _import_workloads().WORKLOADS[name]
    state = wl.build(seed)
    wl.warmup(state)
    return wl, state


class Reference:
    """A fixed kernel, timed next to every job, that gauges the machine's speed.

    On a shared machine the speed drifts by tens of percent over seconds to
    minutes, in wall and CPU time alike. Dividing a job's time by the
    kernel's time next to it cancels most of that drift. Interpreter speed
    and array speed drift apart, so each workload names the kernel that
    tracks it: "python" (an integer loop) or "numpy" (compare-and-count over
    3 MB, 8 times). NOMINAL_S is each kernel's time on an idle core of the
    machine the benchmark was sized on, so a job's time over the kernel's,
    times NOMINAL_S, reads in seconds.
    """

    NOMINAL_S = {"python": 0.0125, "numpy": 0.003}

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        self._array = np.random.default_rng(0).random(400_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        if self.kind == "python":
            total = 0
            for i in range(200_000):
                total += i * i
        else:
            for _ in range(8):
                int((self._array < 0.3).sum())
        return time.perf_counter() - start


def _setup_probe(args) -> int:
    start = time.perf_counter()
    wl, _ = setup(args.workload, args.seed)
    elapsed = time.perf_counter() - start
    ref = Reference(wl.reference_kernel)
    scaled = elapsed / statistics.median(ref() for _ in range(3)) * ref.nominal_s
    print(f"{scaled:.9f} {elapsed:.9f}")
    return 0


def measure_setup(name: str, seed: int) -> list[tuple[float, float]]:
    """(scaled, raw) setup seconds in SETUP_RUNS fresh processes, one after another."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        scaled, raw = done.stdout.strip().splitlines()[-1].split()
        times.append((float(scaled), float(raw)))
    return times


class Gate:
    """Counts jobs attempted and failed; a failure keeps its message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, jobs: int, failures: list[str]) -> None:
        self.attempted += jobs
        self.failures += failures

    def run(self, what: str, fn, *args):
        """fn(*args), or None after recording a failure if it raises."""
        try:
            return fn(*args)
        except Exception:  # a failed job must not stop the run
            traceback.print_exc(file=sys.stderr)
            self.record(1, [f"{what} raised"])
            return None

    @property
    def failed(self) -> int:
        return len(self.failures)


def _record_pass(wl, state, outputs, golden, gate: Gate) -> None:
    gate.record(len(state["jobs"]), wl.check_pass(state, outputs, golden))


def run_untraced(args, golden, gate: Gate) -> dict:
    """Repeat the pass until --seconds are used; time every job."""
    setup_times = measure_setup(args.workload, args.seed)
    wl, state = setup(args.workload, args.seed)
    ref = Reference(wl.reference_kernel)
    ratios: list[list[float]] = []  # per pass: each job's time over the kernel's
    raw_passes: list[float] = []
    pass_walls: list[float] = []  # with the reference kernel's runs
    deadline = time.perf_counter() + args.seconds
    while not ratios or time.perf_counter() + statistics.median(pass_walls) <= deadline:
        start = time.perf_counter()
        result = gate.run(f"{args.workload} pass {len(ratios)}", wl.run_pass, state, None, ref)
        pass_walls.append(time.perf_counter() - start)
        if result is None:
            break
        outputs, seconds, refs = result
        ratios.append([t / ((a + b) / 2) for t, a, b in zip(seconds, refs, refs[1:])])
        raw_passes.append(sum(seconds))
        _record_pass(wl, state, outputs, golden, gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = gate.run(f"{args.workload} checks", wl.checks, state, golden)
    if checked is not None:
        gate.record(*checked)
    if not ratios:
        return {}
    wall = ref.nominal_s * sum(statistics.median(job) for job in zip(*ratios))
    items = sum(job.items for job in state["jobs"])
    setup_s = statistics.median(scaled for scaled, _ in setup_times)
    return {
        "setup_s": (setup_s, "s", f"median of {len(setup_times)} fresh processes, scaled; raw "
                    f"{statistics.median(raw for _, raw in setup_times):.4g} s"),
        "wall_s": (wall, "s", f"{len(state['jobs'])} jobs x {len(ratios)} repeats, scaled; "
                   f"raw median pass {statistics.median(raw_passes):.4g} s"),
        "items_per_s": (items / wall, "1/s", f"{items} {wl.items_are} per pass / wall_s"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }


def run_traced(args, golden, gate: Gate) -> dict:
    """The traced census: untraced/traced pass pairs of every workload."""
    from spans import Tracer, layer_metrics

    states = {name: setup(name, args.seed) for name in WORKLOAD_NAMES}
    tracer = Tracer()
    runs = {name: [] for name in WORKLOAD_NAMES}
    plain_total = traced_total = 0.0

    pair_wall: dict[str, float] = {}  # last untraced + traced pair, per workload

    def pair(name: str) -> None:
        nonlocal plain_total, traced_total
        wl, state = states[name]
        start = time.perf_counter()
        plain = gate.run(f"{name} pass", wl.run_pass, state)
        tracer.run_id = f"{name}/{len(runs[name])}"
        undo = tracer.install()
        try:
            traced = gate.run(f"{name} traced pass", tracer.call, "bench.pass",
                              wl.run_pass, state, tracer)
        finally:
            undo()
        pair_wall[name] = time.perf_counter() - start
        if plain is None or traced is None:
            return
        plain_total += sum(plain[1])
        traced_total += sum(traced[1])
        runs[name].append(tracer.run_id)
        for outputs in (plain[0], traced[0]):
            _record_pass(wl, state, outputs, golden, gate)

    deadline = time.perf_counter() + args.seconds
    for name in WORKLOAD_NAMES:
        pair(name)
    while time.perf_counter() + pair_wall[args.workload] <= deadline:
        pair(args.workload)

    wl, state = states[args.workload]
    checked = gate.run(f"{args.workload} checks", wl.checks, state, golden)
    if checked is not None:
        gate.record(*checked)
    speedup = gate.run("speedup probe", _speedup_2t, states["mc-dense"][1])

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    if any(not r for r in runs.values()) or speedup is None:
        return {}
    return layer_metrics(tracer, runs, traced_total / plain_total, speedup)


def _speedup_2t(state) -> float:
    """mc-dense commands: one thread's time over two threads', untraced."""
    from workloads import run_risk

    times = {}
    for threads in (None, 2):
        start = time.perf_counter()
        for job in state["jobs"]:
            argv = list(job.inputs)
            run_risk(argv if threads is None else argv + ["--threads", "2"])
        times[threads] = time.perf_counter() - start
    return times[None] / times[2]


def record_golden(path: Path) -> int:
    import numpy as np
    from workloads import DETECTOR_ORDER, all_adjacencies, decide, encode_vector

    golden = {}
    for name in ("mc-dense", "mc-scan", "exact-oracles"):
        wl, state = setup(name, 0)
        outputs = wl.run_pass(state)[0]
        golden[name] = {job.key: out for job, out in zip(state["jobs"], outputs)}
    _, state = setup("exhaustive-n6", 0)
    vectors = np.array(decide(list(all_adjacencies()), state["params"]), dtype=np.uint8)
    golden["exhaustive-n6"] = {d: encode_vector(vectors[:, j]) for j, d in enumerate(DETECTOR_ORDER)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _environment() -> str:
    import numpy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"cpus {os.cpu_count()}, {platform.machine()}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "plantedlab" / "__init__.py").is_file():
        print(f"error: no plantedlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if args.record_golden:
        _import_workloads()
        return record_golden(args.golden)

    golden = json.loads(args.golden.read_text(encoding="utf-8"))
    gate = Gate()
    runner = run_traced if args.trace else run_untraced
    metrics = runner(args, golden, gate)
    if not metrics:
        gate.record(0, ["no pass completed"])

    print(f"# plantedlab bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; {_environment()}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:6s} {note}")
    ratio = gate.failed / max(1, gate.attempted)
    print(f"{'failed_ratio':42s} {ratio:14.6g} {'ratio':6s} {gate.failed} of {gate.attempted} jobs")
    for failure in gate.failures[:20]:
        print(f"# FAILED: {failure}")
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
