"""The three threshold tests (edge count, maximum degree, scan) and an exact
likelihood-ratio test for fully enumerable instances.

Thresholds:
    count: C(n,2)q + |e(Gamma)|(p-q)/2
    degree: (n-1)q + d_max(Gamma)(p-q)/2
    scan: kappa * |e(Gamma_max)|, kappa = w*q + (1-w)*p
Ties (statistic == threshold) always reject the null, matching the
likelihood-ratio convention L >= 1. Every detector takes (obs, params,
cfg=None); the count, degree and likelihood-ratio tests ignore cfg.

The scan statistic takes one of two routes. A target with at most
`_SCAN_ENUMERATED_COPIES` (512) copies in K_n, n the observation's, reads
them from the likelihood-ratio test's copy enumeration, one work unit a
copy. Past that bound, a branch and bound over placements of the target
finds the most shared edges on the observation's row masks
(`_scan_statistic`), cutting a branch by the edges left to place, the
degree sums of the ranks left, the free vertices' neighbour counts and the
host's suffix density. The likelihood-ratio test tallies copies by shared
edges from the observation's pair bits, and weighs each distinct tally
once. Both read their instance's constants from one cached entry a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm, log

from .counting import MASK_VERTICES, _copy_overlap_mean, _shared_edges, _subset_cells
from .counting import copies_in_complete
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


def _check_size(obs: Observation, n: int) -> None:
    """The tests that read a threshold of n take an observation on n vertices."""
    if obs.n != n:
        raise ValueError(f"observation on {obs.n} vertices, but the model has n={n}")


def count_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Total edge count against C(n,2)q + |e(Gamma)|(p-q)/2."""
    _check_size(obs, params.n)
    stat = float(obs.num_edges)
    threshold = comb(params.n, 2) * params.q + params.pattern.num_edges * (
        params.p - params.q
    ) / 2
    return Verdict(stat, threshold)


def degree_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Maximum row sum against (n-1)q + d_max(Gamma)(p-q)/2."""
    _check_size(obs, params.n)
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


@metered
def scan_test(
    obs: Observation, params: ModelParams, cfg: DetectorConfig | None = None
) -> Verdict:
    """Max observed edge count over all copies of Gamma_max in K_n.

    Gamma_max is the (deterministically tie-broken) densest subgraph of the
    pattern.
    """
    w = (cfg or _DEFAULT_CONFIG).scan_kappa_weight
    target, copies, cells = _scan_instance(params.pattern, obs.n)
    threshold = (w * params.q + (1 - w) * params.p) * target.num_edges
    if cells is None:
        return Verdict(float(_scan_statistic(obs, target)), threshold)
    spend("scan", copies)
    return Verdict(float(_shared_edges(cells, obs).max()), threshold)


# Past this many copies the search wins. Warm scan_test calls on 30 null draws at each q in
# {.05, .3, .7}, in us: enumeration; search with masks built, on a fresh draw (2 cores):
#   clique:5 n=10, 252 copies: 24-25; 45-78, 83-116
#   star:3 n=9, 504 copies: 19-20; 20-24, 47-56
#   path:3 n=8, 840 copies: 17-18; 16-31, 44-58
#   clique:3 n=20, 1140 copies: 32-34; 22-43, 63-90
#   clique:3 n=40, 9880 copies: 189-194; 32-111, 97-188
_SCAN_ENUMERATED_COPIES = 512


@lru_cache(maxsize=128)
def _scan_instance(pattern: Graph, n: int):
    """(target, copies, cells): target is the densest subgraph of pattern; cells is the
    `_subset_cells` entry of a target on at most `MASK_VERTICES` vertices with at most
    `_SCAN_ENUMERATED_COPIES` copies in K_n, and copies their number, else None (copies is
    then unread). `scan_test` works out its threshold per call, so no entry is keyed on
    p, q or the kappa weight."""
    target = densest_subgraph(pattern)
    k, copies, cells = target.n, 0, None
    if k <= min(n, MASK_VERTICES) and comb(n, k) <= _SCAN_ENUMERATED_COPIES:  # C(n,k) <= copies
        copies = copies_in_complete(target, n)
        if copies <= _SCAN_ENUMERATED_COPIES:
            cells = _subset_cells(target, n)
    return target, copies, cells


@lru_cache(maxsize=128)
def _scan_plan(target: Graph) -> tuple[tuple, tuple, tuple, int, bool, tuple]:
    """(back, twin, steps, layers, chained, dense): the back-edges and twins
    of `_placement_plan`, the scan's bound inputs per position i,

    steps[i] = (later, cap, inner, tail, chain, len(back[i])):
    later: the number of later positions, k-1-i;
    cap: the most back-edges any later position has into positions <= i;
    inner: the back-edges of later positions into later positions;
    tail: the back-edges of later positions;
    chain: whether every later position continues the twin chain of
        position i, so every later image is ranked after the image of i;

    the number of neighbour-count layers, the largest cap, whether any
    position with later positions is chained, and the chained positions
    with inner >= 2, where the host's suffix density may cap the inner
    edges (`_suffix_caps`); a target with none, such as a triangle or a
    star, never walks the suffixes. The layers a candidate would grow are
    read through its row mask, and built only when it descends.
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
    dense = tuple(i for i, step in enumerate(steps) if step[4] and step[2] >= 2)
    return back, twin, steps, max(step[1] for step in steps), chained, dense


def _suffix_caps(masks: list[int], ranked: list[int], wants) -> list[list[int]]:
    """For each (L, own) in `wants`, the list over ranks r of min(own, M),
    M a bound on the host edges among any L vertices ranked after r.

    One backward walk over the ranks finds the last rank whose suffix holds
    an edge, a 2-path and a triangle, and stops at the first triangle; so M
    is exact for L = 2 (1 or 0) and L = 3 (3, 2, 1 or 0). Each edge of an
    L-set lies in L-2 of its (L-1)-subsets, so for L >= 4,
    M(L) = min(C(L,2), floor(L*M(L-1)/(L-2))). The walk is charged 3
    units for each rank it visits (~0.3 us a rank).
    """
    n = len(ranked)
    edge = path = triangle = 0  # the ranks r < edge have an edge ranked after them; so on
    suffix = touched = 0  # the vertices walked, and those with a neighbour among them
    r = n
    while r and not triangle:
        r -= 1
        v = ranked[r]
        nbrs = masks[v] & suffix
        suffix |= 1 << v
        if not nbrs:
            continue
        edge = edge or r
        pair = nbrs & (nbrs - 1)  # nonzero when v has two neighbours in the suffix
        if not path and (pair or nbrs & touched):
            path = r
        touched |= nbrs | 1 << v
        while pair:
            w = nbrs & -nbrs
            nbrs ^= w
            if masks[w.bit_length() - 1] & nbrs:
                triangle = r
                break
            pair = nbrs & (nbrs - 1)
    spend("scan", 3 * (n - r))
    caps = []
    for later, own in wants:
        most = (0, 1, 1, 1) if later == 2 else (0, 1, 2, 3)  # none, edge, 2-path, triangle
        for size in range(4, later + 1):
            most = tuple(min(comb(size, 2), size * m // (size - 2)) for m in most)
        none, one, two, three = (min(own, m) for m in most)
        caps.append(
            [three] * triangle + [two] * (path - triangle)
            + [one] * (edge - path) + [none] * (n - edge)
        )
    return caps


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
      from them, plus the target edges among themselves. When the later
      positions continue i's chain, their images are r vertices ranked
      after the candidate, so the edges among them are capped by the
      host's suffix density too (`_suffix_caps`).
    A candidate reads the layers it would grow through its row mask, and
    stops at the first empty one (they nest); only a candidate that
    descends builds them. The search ends once the incumbent holds every
    target edge or every host edge. Each candidate a position walks is
    charged when it is walked, by the batch of 4096 and at the end; those
    after a stopped walk are not.
    """
    back, twin, steps, nlayers, any_chained, dense = _scan_plan(target)
    masks = obs.row_masks
    degree = list(map(int.bit_count, masks))
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
    cuts = [None] * k  # cuts[i][r]: the inner edges a chained candidate at rank r can gain
    if dense:
        caps = _suffix_caps(masks, ranked, [(steps[i][0], steps[i][2]) for i in dense])
        for i, cap in zip(dense, caps):
            cuts[i] = cap
    images, ranks = [0] * k, [0] * k  # host vertex and its rank, per position
    unit, walked = 16 + 3 * nlayers, 0  # work units per candidate, candidates not charged
    best, frames = 0, []  # frames: (position, rank to resume at, edges, used, layers, placed)
    i, r, edges, used, layers, placed = 0, 0, 0, 0, [0] * nlayers, 0
    while True:
        later, depth, own, tail, chained, nb = steps[i]
        cut = cuts[i]
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
            bound = own
            if chained:
                window = prefix[r + 1 + later] - prefix[r + 1]
                if window <= room:
                    # later ranks have no higher degree and no larger
                    # window, so none of them can win either
                    if window + (nb if nb < degree[u] else degree[u]) <= best - edges:
                        break
                    continue
                if cut:
                    bound = cut[r]
            if bound <= room:  # else no count of free vertices can prune
                free = unused & (after[r] if chained else ~(1 << u))
                nbrs, below = masks[u], free
                for layer in layers[:depth]:
                    layer &= free
                    count = (layer | below & nbrs).bit_count()
                    if not count:
                        break
                    bound += count if count < later else later
                    if bound > room:
                        break
                    below = layer
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
            nbrs, below, grown = masks[u], ~0, []
            for layer in layers:
                grown.append(layer | below & nbrs)
                below = layer
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
    denominator, and divided once. obs must have n vertices (ValueError).
    """
    pattern, n, p, q = params.pattern, params.n, params.p, params.q
    _check_size(obs, n)
    value = _copy_overlap_mean(pattern, obs, *_lrt_instance(pattern, n, p, q))
    return Verdict(value, _ONE)


@lru_cache(maxsize=128)
def _lrt_instance(pattern: Graph, n: int, p: float, q: float) -> tuple[int, tuple[int, ...], int]:
    """(copies, weights, D): the copies in K_n, and weights[a]/D the exact
    likelihood ratio (p/q)**a * ((1-p)/(1-q))**(e-a) of a copy with a of its
    e edges observed; D is the least common denominator of the e+1 ratios."""
    copies = copies_in_complete(pattern, n)  # by this module's name: bench/spans.py wraps it
    e, p, q = pattern.num_edges, Fraction(p), Fraction(q)
    present, absent = p / q, (1 - p) / (1 - q)
    ratios = [present**a * absent ** (e - a) for a in range(e + 1)]
    denominator = lcm(*(r.denominator for r in ratios))
    weights = tuple(r.numerator * (denominator // r.denominator) for r in ratios)
    return copies, weights, denominator
