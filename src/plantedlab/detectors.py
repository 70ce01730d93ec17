"""The three threshold tests (edge count, maximum degree, scan) and an exact
likelihood-ratio test for fully enumerable instances.

Thresholds:
    count: C(n,2)q + |e(Gamma)|(p-q)/2
    degree: (n-1)q + d_max(Gamma)(p-q)/2
    scan: kappa * |e(Gamma_max)|, kappa = w*q + (1-w)*p
Ties (statistic == threshold) always reject the null, matching the
likelihood-ratio convention L >= 1. Every detector takes (obs, params,
cfg=None); the count, degree and likelihood-ratio tests ignore cfg.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, log

import numpy as np

from .counting import _copy_overlaps, copies_in_complete
from .errors import BudgetExceededError, ScanBudgetExceededError
from .graphs import Graph
from .invariants import _placement_plan, densest_subgraph
from .moments import chi_square_bernoulli
from .sampling import ModelParams, Observation

LRT_MAX_VERTICES = 10
LRT_MAX_COPIES = 10**6


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable pieces of the scan and degree tests.

    scan_kappa_weight w sets the scan threshold level kappa = w*q + (1-w)*p
    (any w in (0,1) yields a consistent test; 1/2 is the symmetric default).
    degree_threshold_constant is the constant in the degree-test guarantee
    condition; 16 is the provable default, 2 the optimized variant.
    """

    scan_kappa_weight: float = 0.5
    scan_copy_budget: int = 5_000_000
    degree_threshold_constant: float = 16.0

    def __post_init__(self):
        if not 0 < self.scan_kappa_weight < 1:
            raise ValueError(
                f"scan_kappa_weight must be in (0,1), got {self.scan_kappa_weight}"
            )
        if self.scan_copy_budget < 1:
            raise ValueError("scan_copy_budget must be >= 1")
        if self.degree_threshold_constant <= 0:
            raise ValueError("degree_threshold_constant must be positive")


@dataclass(frozen=True)
class Verdict:
    """decision = 1 rejects the null; always equals [statistic >= threshold].

    The statistic is a Fraction for the exact likelihood-ratio test and a
    float otherwise; comparisons against the threshold are exact either way.
    """

    decision: int
    statistic: float | Fraction
    threshold: float | Fraction

    def __post_init__(self):
        if self.decision != int(self.statistic >= self.threshold):
            raise ValueError("decision must equal [statistic >= threshold]")


def _verdict(statistic, threshold) -> Verdict:
    return Verdict(int(statistic >= threshold), statistic, threshold)


def count_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Total edge count against C(n,2)q + |e(Gamma)|(p-q)/2."""
    stat = float(obs.num_edges)
    threshold = comb(params.n, 2) * params.q + params.pattern.num_edges * (
        params.p - params.q
    ) / 2
    return _verdict(stat, threshold)


def degree_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Maximum row sum against (n-1)q + d_max(Gamma)(p-q)/2."""
    stat = float(obs.max_degree())
    threshold = (params.n - 1) * params.q + params.pattern.max_degree() * (
        params.p - params.q
    ) / 2
    return _verdict(stat, threshold)


def degree_condition_value(params: ModelParams) -> float:
    """min(d^2 chi^2/(n log n), d(p-q)/log n), the degree-test guarantee lhs.

    The test's risk provably vanishes when this exceeds the configured
    constant (16 by default). Purely diagnostic; the test itself runs
    regardless.
    """
    n, p, q = params.n, params.p, params.q
    d = params.pattern.max_degree()
    chi2 = chi_square_bernoulli(p, q)
    return min(d * d * chi2 / (n * log(n)), d * (p - q) / log(n))


def degree_condition_satisfied(
    params: ModelParams, cfg: DetectorConfig | None = None
) -> bool:
    cfg = cfg or DetectorConfig()
    return degree_condition_value(params) > cfg.degree_threshold_constant


@lru_cache(maxsize=128)
def _densest_part(pattern: Graph) -> Graph:
    return densest_subgraph(pattern)


def scan_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Max observed edge count over all copies of Gamma_max in K_n.

    Gamma_max is the (deterministically tie-broken) densest subgraph of the
    pattern. Raises ScanBudgetExceededError when the copy count |S_Gamma_max|
    exceeds the configured budget.
    """
    return _scan(obs, params, cfg or DetectorConfig(), _densest_part(params.pattern))


def scan_test_over_pattern(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Scan over copies of the full pattern instead of its densest subgraph.

    Kept for comparison; scanning the densest subgraph is the better test on
    general patterns.
    """
    return _scan(obs, params, cfg or DetectorConfig(), params.pattern)


def _scan(
    obs: Observation, params: ModelParams, cfg: DetectorConfig, target: Graph
) -> Verdict:
    num_copies = copies_in_complete(target, obs.n)
    if num_copies > cfg.scan_copy_budget:
        raise ScanBudgetExceededError(
            f"{num_copies} copies to scan > budget {cfg.scan_copy_budget}"
        )
    w = cfg.scan_kappa_weight
    kappa = w * params.q + (1 - w) * params.p
    threshold = kappa * target.num_edges
    k = target.n
    if target.num_edges == comb(k, 2):
        stat = _scan_complete(obs.adjacency, k)
    else:
        stat = _scan_general(obs, target)
    return _verdict(float(stat), threshold)


def _scan_complete(adjacency: np.ndarray, k: int) -> int:
    """Max number of observed edges inside any k-vertex subset.

    Enumerates (k-2)-subsets T and closes each with the best remaining pair:
    the score of (T, u, v) is e(T) + deg_T(u) + deg_T(v) + A[u,v], maximized
    over u < v outside T with vectorized arithmetic. Early exit once the
    maximum possible C(k,2) is reached.
    """
    n = adjacency.shape[0]
    if k <= 1:
        return 0
    a = adjacency.astype(np.int16)
    if k == 2:
        return int(a.max()) if n >= 2 else 0
    full = comb(k, 2)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k - 2)),
        dtype=np.int64,
    ).reshape(-1, k - 2)
    best = 0
    block = max(1, 4_000_000 // (n * n))
    diag = np.arange(n)
    for start in range(0, len(combos), block):
        t = combos[start : start + block]
        b = len(t)
        inner = a[t]  # (b, k-2, n)
        deg = inner.sum(axis=1)  # (b, n)
        e_t = np.zeros(b, dtype=np.int64)
        for i in range(k - 2):
            for j in range(i + 1, k - 2):
                e_t += a[t[:, i], t[:, j]]
        m = deg[:, :, None].astype(np.int64) + deg[:, None, :] + a[None, :, :]
        rows = np.arange(b)[:, None]
        m[rows, t, :] = -1
        m[rows, :, t] = -1
        m[:, diag, diag] = -1
        scores = e_t + m.max(axis=(1, 2))
        chunk_best = int(scores.max())
        if chunk_best > best:
            best = chunk_best
            if best >= full:
                return full
    return best


def _scan_general(obs: Observation, target: Graph) -> int:
    """Branch-and-bound max over injective placements of the target.

    Every injective map into K_n is a copy, so the search tree is all
    partial placements; a branch dies when even completing every remaining
    target edge cannot beat the incumbent.
    """
    n = obs.n
    _, back = _placement_plan(target)
    # Edges still completable once i vertices are placed.
    remaining = [0] * (target.n + 1)
    for i in range(target.n):
        remaining[i] = sum(len(back[j]) for j in range(i, target.n))
    neighbor_sets = [
        set(np.nonzero(obs.adjacency[u])[0].tolist()) for u in range(n)
    ]
    total = target.num_edges
    images = [-1] * target.n
    used = [False] * n
    best = 0

    def place(i: int, current: int) -> None:
        nonlocal best
        if current + remaining[i] <= best:
            return
        if i == target.n:
            best = current
            return
        backs = back[i]
        for u in range(n):
            if used[u]:
                continue
            gained = sum(1 for j in backs if images[j] in neighbor_sets[u])
            images[i] = u
            used[u] = True
            place(i + 1, current + gained)
            used[u] = False
            if best >= total:
                return
        images[i] = -1

    place(0, 0)
    return best


def likelihood_ratio_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Exact likelihood ratio L(G) against 1, computed in rational arithmetic.

    L(G) averages, over every copy of the pattern, the product of per-edge
    likelihood ratios (p/q when the edge is observed, (1-p)/(1-q) when not).
    A copy enters only through its number a of observed edges, so the copies
    are tallied by a first. Enumeration is exact and restricted to n <= 10
    and at most 10^6 copies.
    """
    n = params.n
    if n > LRT_MAX_VERTICES:
        raise BudgetExceededError(
            f"likelihood ratio enumeration limited to n <= {LRT_MAX_VERTICES}, got {n}"
        )
    num_copies = copies_in_complete(params.pattern, n)
    if num_copies > LRT_MAX_COPIES:
        raise BudgetExceededError(
            f"{num_copies} pattern copies > enumeration limit {LRT_MAX_COPIES}"
        )
    tally = _copy_overlaps(params.pattern, n, obs.edges())
    assert sum(tally) == num_copies
    p = Fraction(params.p)
    q = Fraction(params.q)
    present, absent = p / q, (1 - p) / (1 - q)
    e = params.pattern.num_edges
    total = sum(
        copies * present**a * absent ** (e - a)
        for a, copies in enumerate(tally)
        if copies
    )
    stat = total / num_copies
    return _verdict(stat, Fraction(1))
