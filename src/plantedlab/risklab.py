"""Monte Carlo risk estimation and parameter sweeps.

Every trial draws from its own derived RNG stream keyed by (hypothesis,
trial index), so estimates are reproducible bit-for-bit and independent of
thread count or accumulation order.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from statistics import NormalDist
from typing import Callable, TextIO

from .detectors import (
    _DEFAULT_CONFIG,
    DetectorConfig,
    Verdict,
    count_test,
    degree_test,
    likelihood_ratio_test,
    scan_test,
    scan_test_over_pattern,
)
from .errors import PlantedLabError
from .graphs import FamilySpec, Graph, make_family
from .sampling import ModelParams, Observation, sample_null, sample_planted, stream

CSV_HEADER = (
    "detector",
    "family",
    "n",
    "p",
    "q",
    "trials",
    "seed",
    "type1",
    "type2",
    "risk",
    "ci",
    "elapsed_ms",
    "error",
)

_CONFIDENCE_Z = NormalDist().inv_cdf(0.995)  # two-sided 0.99

DetectorFn = Callable[[Observation, ModelParams, DetectorConfig], Verdict]

DETECTORS: dict[str, DetectorFn] = {
    "count": count_test,
    "degree": degree_test,
    "scan": scan_test,
    "scan-pattern": scan_test_over_pattern,
    "lrt": likelihood_ratio_test,
}


def resolve_detector(detector: str | DetectorFn) -> tuple[str, DetectorFn]:
    if callable(detector):
        return getattr(detector, "__name__", "custom"), detector
    try:
        return detector, DETECTORS[detector]
    except KeyError:
        known = ", ".join(sorted(DETECTORS))
        raise ValueError(f"unknown detector {detector!r} (known: {known})") from None


@dataclass(frozen=True)
class RiskEstimate:
    """Empirical error rates of a detector over paired H0/H1 trials.

    risk = type1 + type2; ci_halfwidth is the sum of the two per-hypothesis
    Wilson 99% half-widths, a conservative half-width for the sum.
    """

    type1: float
    type2: float
    trials_per_hypothesis: int
    ci_halfwidth: float

    @property
    def risk(self) -> float:
        return self.type1 + self.type2


def estimate_risk(
    detector: str | DetectorFn,
    params: ModelParams,
    trials: int,
    seed: int,
    cfg: DetectorConfig | None = None,
    threads: int | None = None,
) -> RiskEstimate:
    """Run `trials` null draws and `trials` planted draws through a detector.

    Trial k under hypothesis h uses stream(seed, h, k), so one trial can be
    replayed in isolation and thread scheduling cannot change the estimate.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_threads(threads, trials)
    _, fn = resolve_detector(detector)
    cfg = cfg or _DEFAULT_CONFIG

    def run_range(lo: int, hi: int) -> tuple[int, int]:
        false_alarms = 0
        misses = 0
        # each observation is freed once its verdict is in, so no draw
        # shares memory with the trial before it
        for k in range(lo, hi):
            false_alarms += fn(
                sample_null(params.n, params.q, stream(seed, 0, k)), params, cfg
            ).decision
            misses += 1 - fn(
                sample_planted(params, stream(seed, 1, k))[0], params, cfg
            ).decision
        return false_alarms, misses

    if threads and threads > 1:
        step = math.ceil(trials / threads)
        ranges = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda r: run_range(*r), ranges))
        false_alarms = sum(r[0] for r in results)
        misses = sum(r[1] for r in results)
    else:
        false_alarms, misses = run_range(0, trials)

    type1 = false_alarms / trials
    type2 = misses / trials
    ci = _wilson_halfwidth(false_alarms, trials) + _wilson_halfwidth(misses, trials)
    return RiskEstimate(type1, type2, trials, ci)


def _check_threads(threads: int | None, trials: int) -> None:
    if threads is not None and not 1 <= threads <= trials:
        raise ValueError(f"threads must lie in [1, {trials}] for {trials} trials, got {threads}")


def _wilson_halfwidth(successes: int, trials: int) -> float:
    z = _CONFIDENCE_Z
    denom = trials + z * z
    return (
        z
        * math.sqrt(successes * (trials - successes) / trials + z * z / 4)
        / denom
    )


@dataclass(frozen=True)
class SweepSpec:
    """A grid of risk-estimation runs: one row per (family, n, p, q)."""

    detector: str
    families: tuple[str, ...]
    ns: tuple[int, ...]
    ps: tuple[float, ...]
    qs: tuple[float, ...]
    trials: int
    seed: int

    def __post_init__(self):
        if not (self.families and self.ns and self.ps and self.qs):
            raise ValueError("sweep grid must be non-empty in every dimension")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class SweepRow:
    detector: str
    family: str
    n: int
    p: float
    q: float
    trials: int
    seed: int
    estimate: RiskEstimate | None
    elapsed_ms: float
    error: str


def sweep(
    spec: SweepSpec,
    cfg: DetectorConfig | None = None,
    threads: int | None = None,
) -> list[SweepRow]:
    """Run the grid in deterministic (family, n, p, q) order.

    Invalid combinations (q >= p, pattern larger than n, budget blowups)
    become rows with the message in the error column instead of aborting
    the sweep. Row i gets seed spec.seed + i so any row can be rerun alone.
    Each family is built once, on its first row, and a family that fails to
    build puts its message on each of its rows. `threads` outside [1,
    trials] refuses the whole grid before any row runs.
    """
    _check_threads(threads, spec.trials)
    rows = []
    built: dict[str, tuple[Graph | None, str]] = {}
    grid = product(spec.families, spec.ns, spec.ps, spec.qs)
    for idx, (family, n, p, q) in enumerate(grid):
        row_seed = spec.seed + idx
        start = time.perf_counter()
        estimate = None
        if family not in built:
            built[family] = _build_family(family)
        pattern, error = built[family]
        if pattern is not None:
            try:
                params = ModelParams(n=n, p=p, q=q, pattern=pattern)
                estimate = estimate_risk(
                    spec.detector, params, spec.trials, row_seed, cfg, threads
                )
            except (PlantedLabError, ValueError) as exc:
                error = str(exc)
        elapsed_ms = (time.perf_counter() - start) * 1000
        rows.append(
            SweepRow(
                detector=spec.detector,
                family=family,
                n=n,
                p=p,
                q=q,
                trials=spec.trials,
                seed=row_seed,
                estimate=estimate,
                elapsed_ms=elapsed_ms,
                error=error,
            )
        )
    return rows


def _build_family(family: str) -> tuple[Graph | None, str]:
    """The pattern of a family spec, or None and the reason it fails."""
    try:
        return make_family(FamilySpec.parse(family)), ""
    except (PlantedLabError, ValueError) as exc:
        return None, str(exc)


def write_csv(rows: list[SweepRow], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        if row.estimate is None:
            stats = ["", "", "", ""]
        else:
            stats = [
                _fmt(row.estimate.type1),
                _fmt(row.estimate.type2),
                _fmt(row.estimate.risk),
                _fmt(row.estimate.ci_halfwidth),
            ]
        writer.writerow(
            [
                row.detector,
                row.family,
                row.n,
                _fmt(row.p),
                _fmt(row.q),
                row.trials,
                row.seed,
                *stats,
                _fmt(row.elapsed_ms),
                row.error,
            ]
        )


def _fmt(x: float) -> str:
    return f"{x:.6g}"
