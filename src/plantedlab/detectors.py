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
placements of the target along its placement plan, walked on explicit
frames over the observation's cached row masks and degrees. Host vertices
are tried in rank order (degree, highest first, ties by label), and twins
of the target take increasing ranks. A branch dies when the target edges
still to place, the degree sum of the ranks the later positions may take,
or the neighbour counts of the free host vertices (how many placed images
each is adjacent to, kept as bit-sliced layers), cannot lift it above the
incumbent. The degree test reads the same cached degrees when a small
observation's matrix is at hand. The likelihood-ratio test tallies copies
by shared edges from the observation's pair bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm, log
from operator import mul

from .counting import _copy_overlaps, copies_in_complete
from .graphs import Graph
from .invariants import _placement_plan, densest_subgraph
from .moments import chi_square_bernoulli
from .sampling import ModelParams, Observation
from .trace import metered, spend


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable piece of the scan test.

    scan_kappa_weight w sets the scan threshold level kappa = w*q + (1-w)*p
    (any w in (0,1) yields a consistent test; 1/2 is the symmetric default).
    """

    scan_kappa_weight: float = 0.5

    def __post_init__(self):
        if not 0 < self.scan_kappa_weight < 1:
            raise ValueError(
                f"scan_kappa_weight must be in (0,1), got {self.scan_kappa_weight}"
            )


_DEFAULT_CONFIG = DetectorConfig()
_DEGREE_THRESHOLD_CONSTANT = 16  # the provable constant of the degree-test guarantee
_ONE = Fraction(1)  # the likelihood-ratio threshold


@dataclass(frozen=True)
class Verdict:
    """A test's statistic and threshold; `decision` = [statistic >= threshold],
    so 1 rejects the null and ties reject.

    The statistic is a Fraction for the exact likelihood-ratio test and a
    float otherwise; comparisons against the threshold are exact either way.
    """

    statistic: float | Fraction
    threshold: float | Fraction

    @property
    def decision(self) -> int:
        return int(self.statistic >= self.threshold)


def count_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Total edge count against C(n,2)q + |e(Gamma)|(p-q)/2."""
    stat = float(obs.num_edges)
    threshold = comb(params.n, 2) * params.q + params.pattern.num_edges * (
        params.p - params.q
    ) / 2
    return Verdict(stat, threshold)


def degree_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Maximum row sum against (n-1)q + d_max(Gamma)(p-q)/2."""
    stat = float(obs.max_degree())
    threshold = (params.n - 1) * params.q + params.pattern.max_degree() * (
        params.p - params.q
    ) / 2
    return Verdict(stat, threshold)


def degree_condition_value(params: ModelParams) -> float:
    """min(d^2 chi^2/(n log n), d(p-q)/log n), the degree-test guarantee lhs.

    The test's risk provably vanishes when this exceeds the constant 16.
    Purely diagnostic; the test itself runs regardless.
    """
    n, p, q = params.n, params.p, params.q
    d = params.pattern.max_degree()
    chi2 = chi_square_bernoulli(p, q)
    return min(d * d * chi2 / (n * log(n)), d * (p - q) / log(n))


def degree_condition_satisfied(params: ModelParams) -> bool:
    return degree_condition_value(params) > _DEGREE_THRESHOLD_CONSTANT


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
    return _scan(obs, params, cfg or _DEFAULT_CONFIG, _densest_part(params.pattern))


@metered
def scan_test_over_pattern(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Scan over copies of the full pattern instead of its densest subgraph.

    Kept for comparison; scanning the densest subgraph is the better test on
    general patterns.
    """
    return _scan(obs, params, cfg or _DEFAULT_CONFIG, params.pattern)


def _scan(
    obs: Observation, params: ModelParams, cfg: DetectorConfig, target: Graph
) -> Verdict:
    w = cfg.scan_kappa_weight
    kappa = w * params.q + (1 - w) * params.p
    threshold = kappa * target.num_edges
    return Verdict(float(_scan_statistic(obs, target)), threshold)


@lru_cache(maxsize=128)
def _scan_plan(target: Graph) -> tuple[tuple, tuple, tuple, int, bool]:
    """(back, twin, steps, layers, chained): the back-edges and twins of
    `_placement_plan`, the scan's bound inputs per position i,

    steps[i] = (later, cap, inner, tail, chain, len(back[i])):
    later: the number of later positions, k-1-i;
    cap: the most back-edges any later position has into positions <= i;
    inner: the back-edges of later positions into later positions;
    tail: the back-edges of later positions;
    chain: whether every later position continues the twin chain of
        position i, so every later image is ranked after the image of i;

    the number of neighbour-count layers, the largest cap, and whether
    any position with later positions is chained.
    """
    _, back, twin = _placement_plan(target)
    k = len(back)
    steps = tuple(
        (
            k - 1 - i,
            max((sum(b <= i for b in back[j]) for j in range(i + 1, k)), default=0),
            sum(b > i for j in range(i + 1, k) for b in back[j]),
            sum(len(back[j]) for j in range(i + 1, k)),
            all(twin[j] == j - 1 for j in range(i + 1, k)),
            len(back[i]),
        )
        for i in range(k)
    )
    chained = any(step[0] and step[4] for step in steps)
    return back, twin, steps, max(step[1] for step in steps), chained


def _scan_statistic(obs: Observation, target: Graph) -> int:
    """Max number of observed edges over the injective placements of target.

    Branch and bound along the placement plan, on the observation's row
    bitmasks in label space, walked over explicit frames. Each position
    tries the host vertices in rank order: by degree, highest first, ties
    in label order. Twins of the target take increasing ranks: permuting
    them is an automorphism, so each copy is still reached (a clique is
    searched as vertex sets). The maximum does not depend on host labels,
    so neither does the statistic.

    A candidate dies when even the best completion cannot beat the
    incumbent. That completion is bounded three ways:
    - by the target edges still to place;
    - by degree sums: every edge gained after position i has an endpoint
      at one of the r = k-1-i later images, so they gain at most the sum
      of the r highest degrees they may take; when every later position
      continues i's twin chain, those are the next r ranks, read off a
      prefix sum. Later candidates have no higher degree and no larger
      sum, so once the candidate's own degree plus that sum cannot win,
      the walk of the position stops;
    - by the free vertices' neighbour counts: layers[t-1] holds the host
      vertices adjacent to at least t placed images, so the r later
      positions, each with at most cap[i] back-edges into the placed ones,
      gain at most sum over t <= cap[i] of min(r, free vertices in layer t)
      from them, plus the target edges among themselves.
    The search ends once the incumbent holds every target edge or every
    host edge. Each candidate a position walks is charged when it is
    walked, by the batch of 4096 and at the end; those after a stopped
    walk are not.
    """
    back, twin, steps, nlayers, any_chained = _scan_plan(target)
    masks, degree = obs.row_masks, obs.row_degrees
    k, n = target.n, obs.n
    ranked = sorted(range(n), key=degree.__getitem__, reverse=True)  # ties by label
    prefix = list(accumulate(map(degree.__getitem__, ranked), initial=0))
    total = min(target.num_edges, prefix[-1] // 2)  # no placement sees more
    prefix += [prefix[-1]] * k  # so prefix[r + 1 + later] stays in range
    after = [0] * n  # after[r]: the vertices ranked after r, read by chained bounds
    if any_chained:
        bits = 0
        for r in range(n - 1, 0, -1):
            bits |= 1 << ranked[r]
            after[r - 1] = bits
    images, ranks = [0] * k, [0] * k  # host vertex and its rank, per position
    unit, walked = 16 + 3 * nlayers, 0  # work units per candidate, candidates not charged
    best, frames = 0, []  # frames: (position, rank to resume at, edges, used, layers, placed)
    i, r, edges, used, layers, placed = 0, 0, 0, 0, [0] * nlayers, 0
    while True:
        later, depth, own, tail, chained, nb = steps[i]
        unused, start, descend = ~used, r, False
        for r in range(start, n):
            u = ranked[r]
            if used >> u & 1:
                continue
            gain = (masks[u] & placed).bit_count()
            room = best - edges - gain  # what the later positions must beat
            if tail <= room:
                continue
            if not later:
                best = edges + gain
                if best == total:
                    spend("scan", unit * (walked + r + 1 - start))
                    return best
                continue
            if chained:
                window = prefix[r + 1 + later] - prefix[r + 1]
                if window <= room:
                    # later ranks have no higher degree and no larger
                    # window, so none of them can win either
                    if window + min(degree[u], nb) <= best - edges:
                        break
                    continue
            nbrs, below, grown = masks[u], ~0, []
            for layer in layers:
                grown.append(layer | below & nbrs)
                below = layer
            if own <= room:  # else no count of free vertices can prune
                free = unused & (after[r] if chained else ~(1 << u))
                bound = own
                for layer in grown[:depth]:
                    bound += min(later, (layer & free).bit_count())
                if bound <= room:
                    continue
            descend = True
            break
        else:
            r = n - 1
        walked += r + 1 - start
        if walked > 4096:
            spend("scan", unit * walked)
            walked = 0
        if descend:
            frames.append((i, r + 1, edges, used, layers, placed))
            images[i], ranks[i] = u, r
            i, edges, used, layers, placed = i + 1, edges + gain, used | 1 << u, grown, 0
            r = ranks[twin[i]] + 1 if twin[i] >= 0 else 0
            for j in back[i]:
                placed |= 1 << images[j]
        elif frames:
            i, r, edges, used, layers, placed = frames.pop()
        else:
            spend("scan", unit * walked)
            return best


@metered
def likelihood_ratio_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Exact likelihood ratio L(G) against 1, as one Fraction.

    L(G) averages, over every copy of the pattern, the product of per-edge
    likelihood ratios (p/q when the edge is observed, (1-p)/(1-q) when not).
    A copy enters only through its number a of observed edges, so the copies
    are tallied by a first, within `counting.COPY_OVERLAP_BYTES`. The sum
    over a is taken in integers, on weights cached over one common
    denominator, and divided once.
    """
    num_copies = copies_in_complete(params.pattern, params.n)
    tally = _copy_overlaps(params.pattern, params.n, obs._bits)
    assert sum(tally) == num_copies
    weights, denominator = _lrt_weights(params.p, params.q, params.pattern.num_edges)
    total = sum(map(mul, tally, weights))
    return Verdict(Fraction(total, denominator * num_copies), _ONE)


@lru_cache(maxsize=128)
def _lrt_weights(p: float, q: float, e: int) -> tuple[tuple[int, ...], int]:
    """(weights, D): weights[a]/D is the likelihood ratio of a copy with a of
    its e edges observed, (p/q)**a * ((1-p)/(1-q))**(e-a), exactly; D is the
    least common denominator of the e+1 ratios."""
    p, q = Fraction(p), Fraction(q)
    present, absent = p / q, (1 - p) / (1 - q)
    ratios = [present**a * absent ** (e - a) for a in range(e + 1)]
    denominator = lcm(*(r.denominator for r in ratios))
    weights = tuple(r.numerator * (denominator // r.denominator) for r in ratios)
    return weights, denominator
