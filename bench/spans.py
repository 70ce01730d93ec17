"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the package: the benchmark wraps public
functions at module boundaries, in the namespace of the module that calls
them (callers bind names with ``from .x import y``, so patching the defining
module would miss them). Classes are never wrapped: ``Observation`` is used in
``isinstance`` checks.

A span is (run_id, span_id, parent_id, name, start_s, end_s, label). Spans
and counters stay in memory and are written out once, by :meth:`Tracer.dump`.
The tracer is single-threaded: traced passes run with one thread.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict

# (calling module, attribute, span name) patched by install(): the module is
# the caller, the span name is the layer that does the work. Every entry of
# risklab.DETECTORS is wrapped as well, as span "detectors.<key>".
WRAPPED = (
    ("risklab", "sample_null", "sampling.sample_null"),
    ("risklab", "sample_planted", "sampling.sample_planted"),
    ("risklab", "stream", "sampling.stream"),
    ("cli", "estimate_risk", "risklab.estimate_risk"),
    ("cli", "make_family", "graphs.make_family"),
    ("detectors", "copies_in_complete", "counting.copies_in_complete"),
    ("moments", "containment_probability", "counting.containment_probability"),
    ("moments", "isomorphic", "invariants.isomorphic"),
    ("counting", "automorphism_count", "invariants.automorphism_count"),
)


def _sampling_work(tracer: "Tracer", n: int, planted: bool) -> None:
    """Count pairs drawn and the bytes the sampler's arrays hold.

    Bytes are computed from array sizes, not measured: 8 B per uniform and
    1 B per bit for the m pairs (plus 8 B per threshold when planted), and
    four passes over the n x n boolean adjacency (fill, transpose-or,
    symmetry check, defensive copy).
    """
    m = n * (n - 1) // 2
    tracer.count("sampling.pairs_drawn", m)
    tracer.count("sampling.bytes_computed", m * (17 if planted else 9) + 4 * n * n)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.run_id = ""
        self._stack: list[tuple[int, str]] = []  # open spans: (span_id, name)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self.run_id][key] += amount

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def call(self, name: str, fn, *args, label: str = "", on_result=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.run_id, span_id, parent, name, start, end, label)
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, name: str, fn, label_of=None, on_call=None, on_result=None):
        """A traced stand-in for fn; label_of(*args) names the call's inputs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            label = label_of(*args) if label_of is not None else ""
            return self.call(name, fn, *args, label=label, on_result=on_result, **kwargs)

        return traced

    # -- patching the package ----------------------------------------------

    def install(self):
        """Patch the WRAPPED names and DETECTORS entries; returns an undo."""
        from plantedlab import cli, counting, detectors, moments, risklab

        modules = {
            "cli": cli,
            "counting": counting,
            "detectors": detectors,
            "moments": moments,
            "risklab": risklab,
        }
        hooks = {
            "sampling.sample_null": dict(
                label_of=lambda n, q, rng: f"n={n}",
                on_call=lambda n, q, rng: _sampling_work(self, n, False),
            ),
            "sampling.sample_planted": dict(
                label_of=lambda params, rng: f"n={params.n}",
                on_call=lambda params, rng: _sampling_work(self, params.n, True),
            ),
            "counting.copies_in_complete": dict(
                on_result=lambda r: self.count(f"copies<-{self.parent_name()}", r)
            ),
            "invariants.isomorphic": dict(
                on_result=lambda r: self.count("invariants.isomorphic.true", int(r))
            ),
        }
        saved = []
        for mod_name, attr, span in WRAPPED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span, original, **hooks.get(span, {})))
        table = risklab.DETECTORS
        saved_detectors = dict(table)
        for key, fn in saved_detectors.items():
            table[key] = self.wrap(
                f"detectors.{key}",
                fn,
                label_of=lambda obs, params, cfg: f"k{params.pattern.n} n{obs.n}",
            )

        def undo() -> None:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            table.clear()
            table.update(saved_detectors)

        return undo

    # -- analysis ----------------------------------------------------------

    def dump(self, path) -> None:
        cols = ["run_id", "span_id", "parent_id", "name", "start_s", "end_s", "label"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": cols,
                    "spans": self.spans,
                    "counters": {k: dict(v) for k, v in self.counters.items()},
                },
                fh,
            )


class SpanStats:
    """Busy time, self time and call samples per span name, over a set of runs.

    Self time is the span's duration minus its direct children's durations;
    children of one span never overlap because traced passes run on one
    thread.
    """

    def __init__(self, tracer: Tracer, run_ids: list[str]):
        runs = set(run_ids)
        self.num_runs = max(1, len(run_ids))
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        child_time: Counter = Counter()
        spans = [s for s in tracer.spans if s[0] in runs]
        for run_id, span_id, parent, name, start, end, label in spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
        for run_id, span_id, parent, name, start, end, label in spans:
            dur = end - start
            self.busy[name] += dur
            self.self_time[name] += dur - child_time[span_id]
            self.calls[name] += 1
            self.samples[(name, label)].append(dur)
        self.counters: Counter = Counter()
        for run_id in runs:
            self.counters.update(tracer.counters.get(run_id, {}))

    def per_run(self, table: Counter, name: str) -> float:
        return table[name] / self.num_runs

    def durations(self, name: str) -> list[float]:
        return [d for (n, _), ds in self.samples.items() if n == name for d in ds]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    rank = min(max(1, math.ceil(len(ordered) * q / 100)), len(ordered))
    return ordered[rank - 1]


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at least 10
    samples beyond it; (100, max) when there are fewer than 20 samples."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            best = q
    if best is None:
        return 100.0, max(values) if values else 0.0
    return best, percentile(values, best)


# ---------------------------------------------------------------------------
# Per-layer metrics. Each is read from the traced passes of the workload the
# prediction table ties it to (its source), as a mean per traced pass.
# ---------------------------------------------------------------------------

DETECTOR_SOURCES = (
    ("count", "mc-dense"),
    ("degree", "mc-dense"),
    ("scan", "mc-scan"),
    ("lrt", "exhaustive-n6"),
)

# (metric, source workload, span name, span label) of the ROADMAP baseline rows.
BASELINE_ROWS = (
    ("baseline.sample_null_n2000.ms", "mc-dense", "sampling.sample_null", "n=2000"),
    ("baseline.scan_k5_n40.ms", "mc-scan", "detectors.scan", "k5 n40"),
    ("baseline.second_moment_exact_k5_n20.ms", "exact-oracles",
     "moments.second_moment_exact", "clique:5 n=20"),
    ("baseline.second_moment_exact_k6_n20.ms", "exact-oracles",
     "moments.second_moment_exact", "clique:6 n=20"),
    ("baseline.max_subgraph_density_g200.ms", "exact-oracles",
     "invariants.max_subgraph_density", "G(200,0.1)"),
)

MOMENT_SPANS = (
    "moments.second_moment_exact",
    "moments.ldp_norm_sq",
    "moments.second_moment_pair_enum",
)


def layer_metrics(tracer: Tracer, runs: dict[str, list[str]], overhead: float, speedup: float):
    """{metric: (value, unit, note)} for every per-layer metric."""
    dense = SpanStats(tracer, runs["mc-dense"])
    scan = SpanStats(tracer, runs["mc-scan"])
    exact = SpanStats(tracer, runs["exact-oracles"])
    tiny = SpanStats(tracer, runs["exhaustive-n6"])
    out = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    busy, self_time = dense.busy, dense.self_time
    put("cli.self_s", (busy["cli.run_command"] - busy["risklab.estimate_risk"]) / dense.num_runs, "s")
    put("risklab.estimate_risk.busy_s", dense.per_run(busy, "risklab.estimate_risk"), "s")
    put("risklab.self_s", dense.per_run(self_time, "risklab.estimate_risk"), "s")
    put("risklab.speedup_2t", speedup, "x", "threads=2 over threads=1, untraced, informational")

    samplers = ("sampling.sample_null", "sampling.sample_planted")
    sampling_busy = sum(busy[s] for s in samplers)
    pairs = dense.counters["sampling.pairs_drawn"]
    put("sampling.calls", sum(dense.calls[s] for s in samplers) / dense.num_runs, "count")
    put("sampling.busy_s", sampling_busy / dense.num_runs, "s")
    put("sampling.share", sampling_busy / busy["bench.pass"], "ratio")
    put("sampling.pairs_drawn", pairs / dense.num_runs, "count")
    put("sampling.ns_per_pair", sampling_busy * 1e9 / pairs, "ns")
    put("sampling.bytes_computed", dense.counters["sampling.bytes_computed"] / dense.num_runs,
        "B", "computed from array sizes, not measured")
    put("sampling.stream.busy_s", dense.per_run(busy, "sampling.stream"), "s")
    put("sampling.observation.busy_s", tiny.per_run(tiny.busy, "sampling.observation"), "s")

    sources = {"mc-dense": dense, "mc-scan": scan, "exhaustive-n6": tiny}
    for detector, source in DETECTOR_SOURCES:
        st = sources[source]
        span = f"detectors.{detector}"
        samples = [d * 1e3 for d in st.durations(span)]
        pct, value = tail(samples)
        put(f"{span}.calls", st.calls[span] / st.num_runs, "count")
        put(f"{span}.busy_s", st.per_run(st.busy, span), "s")
        put(f"{span}.ms_p50", percentile(samples, 50) if samples else 0.0, "ms")
        put(f"{span}.ms_tail", value, "ms", f"p{pct:g} of {len(samples)} calls")
    put("detectors.scan.copies_budgeted", scan.counters["copies<-detectors.scan"] / scan.num_runs, "count")
    put("detectors.lrt.copies", tiny.counters["copies<-detectors.lrt"] / tiny.num_runs, "count")

    for name, st in (
        ("counting.copies_in_complete", tiny),
        ("counting.containment_probability", exact),
        ("invariants.isomorphic", exact),
        ("invariants.automorphism_count", tiny),
    ):
        put(f"{name}.calls", st.calls[name] / st.num_runs, "count")
        put(f"{name}.busy_s", st.per_run(st.busy, name), "s")
    iso_calls = exact.calls["invariants.isomorphic"]
    put("invariants.isomorphic.match_ratio",
        exact.counters["invariants.isomorphic.true"] / iso_calls if iso_calls else 0.0, "ratio")
    put("invariants.max_subgraph_density.busy_s",
        exact.per_run(exact.busy, "invariants.max_subgraph_density"), "s")

    for span in MOMENT_SPANS:
        put(f"{span}.busy_s", exact.per_run(exact.busy, span), "s")
    put("moments.self_s", sum(exact.self_time[s] for s in MOMENT_SPANS) / exact.num_runs, "s")
    moment_calls = exact.calls["moments.second_moment_exact"] + exact.calls["moments.ldp_norm_sq"]
    put("moments.classes", exact.calls["counting.containment_probability"] / moment_calls, "count",
        "containment calls per second-moment or ldp call")
    put("graphs.make_family.busy_s", dense.per_run(busy, "graphs.make_family"), "s")
    put("trace.overhead_ratio", overhead, "ratio", "traced pass time over untraced")

    stats = {"mc-dense": dense, "mc-scan": scan, "exact-oracles": exact}
    for metric, source, span, label in BASELINE_ROWS:
        samples = [d * 1e3 for d in stats[source].samples[(span, label)]]
        put(metric, percentile(samples, 50), "ms", f"median of {len(samples)} calls")
    return out
