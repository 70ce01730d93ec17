"""The three threshold tests (edge count, maximum degree, scan) and an exact
likelihood-ratio test for fully enumerable instances.

Thresholds:
    count: C(n,2)q + |e(Gamma)|(p-q)/2
    degree: (n-1)q + d_max(Gamma)(p-q)/2
    scan: kappa * |e(Gamma_max)|, kappa = w*q + (1-w)*p
Ties (statistic == threshold) always reject the null, matching the
likelihood-ratio convention L >= 1. Every detector takes (obs, params,
cfg=None); the count, degree and likelihood-ratio tests ignore cfg.

The scan statistic, for every target, comes from one branch and bound over
placements of the target along its placement plan, with twins of the target
placed on increasing host vertices. A branch dies when the target edges
still to place, or the neighbour counts of the free host vertices (how many
placed images each is adjacent to, kept as bit-sliced layers), cannot lift
it above the incumbent.
The likelihood-ratio test tallies copies by shared edges from the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, log

import numpy as np

from .counting import _copy_overlaps, copies_in_complete
from .graphs import Graph
from .invariants import _placement_plan, _twin_classes, densest_subgraph
from .moments import chi_square_bernoulli
from .sampling import ModelParams, Observation
from .trace import metered, spend


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable pieces of the scan and degree tests.

    scan_kappa_weight w sets the scan threshold level kappa = w*q + (1-w)*p
    (any w in (0,1) yields a consistent test; 1/2 is the symmetric default).
    degree_threshold_constant is the constant in the degree-test guarantee
    condition; 16 is the provable default, 2 the optimized variant.
    """

    scan_kappa_weight: float = 0.5
    degree_threshold_constant: float = 16.0

    def __post_init__(self):
        if not 0 < self.scan_kappa_weight < 1:
            raise ValueError(
                f"scan_kappa_weight must be in (0,1), got {self.scan_kappa_weight}"
            )
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


@metered
def scan_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Max observed edge count over all copies of Gamma_max in K_n.

    Gamma_max is the (deterministically tie-broken) densest subgraph of the
    pattern.
    """
    return _scan(obs, params, cfg or DetectorConfig(), _densest_part(params.pattern))


@metered
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
    w = cfg.scan_kappa_weight
    kappa = w * params.q + (1 - w) * params.p
    threshold = kappa * target.num_edges
    return _verdict(float(_scan_statistic(obs.adjacency, target)), threshold)


@lru_cache(maxsize=128)
def _scan_plan(
    target: Graph,
) -> tuple[list[list[int]], list[int], list[int], list[int], list[int], list[bool]]:
    """Per-position tables along `_placement_plan`, for the scan's bounds:

    back[i]: the positions of the back-edges of position i;
    twin[i]: the position of the previous member of its twin class, or -1;
    rest[i]: the back-edges at position i and after it;
    cap[i]: the most back-edges any later position has into positions <= i;
    inner[i]: the back-edges of later positions into later positions;
    chain[i]: whether every later position continues the twin chain of
        position i, so every later image is above the image of i.
    """
    order, back = _placement_plan(target)
    k = len(order)
    classes = _twin_classes(target)
    twin_class = {v: c for c, members in enumerate(classes) for v in members}
    last: dict[int, int] = {}
    twin = []
    for i, v in enumerate(order):
        twin.append(last.get(twin_class[v], -1))
        last[twin_class[v]] = i
    rest = [0] * (k + 1)
    for i in reversed(range(k)):
        rest[i] = rest[i + 1] + len(back[i])
    cap = [max((sum(b <= i for b in back[j]) for j in range(i + 1, k)), default=0)
           for i in range(k)]
    inner = [sum(b > i for j in range(i + 1, k) for b in back[j]) for i in range(k)]
    chain = [all(twin[j] == j - 1 for j in range(i + 1, k)) for i in range(k)]
    return back, twin, rest, cap, inner, chain


def _scan_statistic(adjacency: np.ndarray, target: Graph) -> int:
    """Max number of observed edges over the injective placements of target.

    Branch and bound along the placement plan, on host neighbourhoods kept
    as bitmasks. Twins of the target take increasing host vertices:
    permuting them is an automorphism, so each copy is still reached (a
    clique is searched as vertex sets).

    A candidate dies when even the best completion cannot beat the
    incumbent. That completion is bounded by the remaining target edges,
    and also by the free vertices' neighbour counts: layers[t-1] holds the
    host vertices adjacent to at least t placed images, so the r later
    positions, each with at most cap[i] back-edges into the placed ones,
    gain at most sum over t <= cap[i] of min(r, free vertices in layer t)
    from them, plus the target edges among themselves. A node is charged
    for every host vertex it may try, by the batch of 4096 and at the end.
    """
    back, twin, rest, cap, inner, chain = _scan_plan(target)
    k, n, total = target.n, adjacency.shape[0], target.num_edges
    masks = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(adjacency, axis=1, bitorder="little")
    ]
    images = [0] * k
    best = 0
    unit, tried = 16 + 3 * max(cap), 0  # work units per candidate, candidates not charged

    def place(i: int, edges: int, used: int, layers: list[int]) -> None:
        nonlocal best, tried
        start = images[twin[i]] + 1 if twin[i] >= 0 else 0
        tried += n - start
        if tried > 4096:
            spend("scan", unit * tried)
            tried = 0
        placed = 0
        for j in back[i]:
            placed |= 1 << images[j]
        later, depth, own, tail = k - 1 - i, cap[i], inner[i], rest[i + 1]
        unused = ~used
        for u in range(start, n):
            if used >> u & 1:
                continue
            gain = (masks[u] & placed).bit_count()
            room = best - edges - gain  # what the later positions must beat
            if tail <= room:
                continue
            if not later:
                best = edges + gain
                if best == total:
                    return
                continue
            nbrs, below, grown = masks[u], ~0, []
            for layer in layers:
                grown.append(layer | below & nbrs)
                below = layer
            if own <= room:  # else no count of free vertices can prune
                free = unused & (~0 << (u + 1) if chain[i] else ~(1 << u))
                bound = own
                for layer in grown[:depth]:
                    bound += min(later, (layer & free).bit_count())
                if bound <= room:
                    continue
            images[i] = u
            place(i + 1, edges + gain, used | 1 << u, grown)
            if best == total:
                return

    place(0, 0, 0, [0] * max(cap))
    spend("scan", unit * tried)
    return best


@metered
def likelihood_ratio_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Exact likelihood ratio L(G) against 1, computed in rational arithmetic.

    L(G) averages, over every copy of the pattern, the product of per-edge
    likelihood ratios (p/q when the edge is observed, (1-p)/(1-q) when not).
    A copy enters only through its number a of observed edges, so the copies
    are tallied by a first, within `counting.COPY_OVERLAP_BYTES`.
    """
    num_copies = copies_in_complete(params.pattern, params.n)
    tally = _copy_overlaps(params.pattern, params.n, obs.adjacency)
    assert sum(tally) == num_copies
    weights = _lrt_weights(params.p, params.q, params.pattern.num_edges)
    total = sum(copies * weights[a] for a, copies in enumerate(tally) if copies)
    stat = total / num_copies
    return _verdict(stat, Fraction(1))


@lru_cache(maxsize=128)
def _lrt_weights(p: float, q: float, e: int) -> tuple[Fraction, ...]:
    """weights[a]: the likelihood ratio of a copy with a of its e edges
    observed, (p/q)**a * ((1-p)/(1-q))**(e-a), in exact arithmetic."""
    p, q = Fraction(p), Fraction(q)
    present, absent = p / q, (1 - p) / (1 - q)
    return tuple(present**a * absent ** (e - a) for a in range(e + 1))
