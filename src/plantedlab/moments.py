"""Likelihood second moments, the truncated low-degree norm, intersection
sampling, and risk lower bounds.

Every exact form reads one law: that of the number I of edges shared by a
uniform copy of the pattern in K_n and a fixed copy. Counting injections by
their shared edges gives it exactly, and then

    E[L^2]        = E[(1 + lambda^2)^I],
    ||L^{<=D}||^2 = sum over d <= D of lambda^(2d) E[C(I, d)],

where E[C(I, d)] is the subgraph sum over d-edge subsets H of a fixed copy
of P[H in a uniform copy]; saturating D recovers E[L^2]. The count merges
states under twin and component symmetries, and may spend what summing
E[C(I, d)] over the subsets H would cost, a price known from the input: 25
units of the call's work meter (`trace`) per subset of at most D edges,
but never so much that the meter could no longer pay that price. On large
patterns with few symmetries it gives up there and the subsets are summed
instead, which stays cheap at small D, so a call spends at most about
twice the cheaper route's price in work units, plus the subset route's
isomorphism and automorphism searches. In time it can be more: on dense
patterns a subset takes longer than its 25 units. The subset route
searches for no copy: an isomorphism class of w subsets adds
w^2 / N(H, K_n) (`_subset_moments`), which holds only if the class merge of
`invariants` is complete. Pair enumeration over all copies is kept as an
independent check on small n.

Exact paths stay in rational arithmetic whenever lambda^2 is a Fraction;
Monte-Carlo paths are float with a reported standard error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np

from .counting import _copy_overlap_mean, copies_in_complete
from .counting import containment_probability  # noqa: F401  bench/spans.py wraps it by this name
from .errors import DegenerateQError, InvalidMomentError
from .graphs import Graph
from .invariants import _isomorphism_classes, _placement_plan, _twin_classes, isomorphic
from .sampling import Observation, _check_instance, batched_copy_images
from .trace import left, metered, spend

MC_CHUNK_BYTES = 1 << 24  # copy images held at once by the Monte Carlo paths

EXACT_SUBGRAPH_SUM = "exact_subgraph_sum"
EXACT_INTERSECTION_MGF = "exact_intersection_mgf"
MONTE_CARLO = "monte_carlo"


def chi_square_bernoulli(p, q):
    """Bernoulli chi-square divergence (p-q)^2 / (q(1-q)).

    This is the squared signal strength lambda^2. Fraction inputs give a
    Fraction back; floats give a float.
    """
    _check_bernoulli(p, q)
    return (p - q) ** 2 / (q * (1 - q))


def _check_bernoulli(p, q) -> None:
    """The checks on (p, q) that every Bernoulli divergence makes."""
    if not 0 < q < 1:
        raise DegenerateQError(f"q must lie in (0,1), got {q}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0,1], got {p}")


@dataclass(frozen=True)
class MomentParams:
    """Inputs for the moment computations: instance size, signal strength
    lambda^2, and the planted pattern."""

    n: int
    lambda_sq: float | Fraction
    pattern: Graph

    def __post_init__(self):
        if self.lambda_sq < 0:
            raise ValueError(f"lambda_sq must be >= 0, got {self.lambda_sq}")
        _check_instance(self.n, self.pattern)

    @classmethod
    def from_probabilities(cls, n: int, p, q, pattern: Graph) -> "MomentParams":
        return cls(n=n, lambda_sq=chi_square_bernoulli(p, q), pattern=pattern)


@dataclass(frozen=True)
class LdpConfig:
    """Truncation degree for the low-degree norm."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class MomentResult:
    value: float | Fraction
    method: str
    std_error: float | None = None

    def __post_init__(self):
        if self.value < 1 - 1e-9:
            raise InvalidMomentError(
                f"second moment of a unit-mean likelihood is >= 1, got {self.value}"
            )


@dataclass
class IntersectionHistogram:
    """Empirical law of the number of edges shared by a random copy and a
    fixed copy of the pattern: counts[j] trials shared j edges."""

    counts: dict[int, int]

    @property
    def trials(self) -> int:
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        trials = self.trials
        return {k: c / trials for k, c in sorted(self.counts.items())}


def intersection_distribution(
    pattern: Graph, n: int, trials: int, rng: np.random.Generator
) -> IntersectionHistogram:
    """Sample |e(copy ∩ fixed copy)| with the fixed copy at identity placement."""
    hist = _intersection_counts(pattern, n, trials, rng)
    return IntersectionHistogram({j: int(c) for j, c in enumerate(hist) if c})


@metered
def second_moment_exact(mp: MomentParams) -> MomentResult:
    """E[L^2] = E[(1 + lambda^2)^I] from the exact shared-edge law."""
    value = _binomial_moment_sum(mp.pattern, mp.n, mp.lambda_sq, mp.pattern.num_edges)
    return MomentResult(value=value, method=EXACT_SUBGRAPH_SUM)


@metered
def ldp_norm_sq(mp: MomentParams, cfg: LdpConfig) -> MomentResult:
    """Squared norm of the degree-<=D projection of the likelihood ratio.

    Equals sum over d <= D of lambda^(2d) E[C(I, d)]: the subgraph sum over
    edge subsets of a fixed copy, truncated at D edges. Saturating D
    recovers E[L^2] exactly.
    """
    value = _binomial_moment_sum(mp.pattern, mp.n, mp.lambda_sq, cfg.degree)
    return MomentResult(value=value, method=EXACT_SUBGRAPH_SUM)


@metered
def second_moment_pair_enum(mp: MomentParams) -> MomentResult:
    """E[(1+lambda^2)^intersection] by enumerating every copy and tallying
    its shared edges with a fixed one. Independent of the shared-edge law;
    exact on small instances (see `counting.COPY_OVERLAP_BYTES`)."""
    pattern, n = mp.pattern, mp.n
    fixed = Observation.from_graph(Graph(n, pattern.edges))  # the copy on [k]
    base = 1 + Fraction(mp.lambda_sq)  # a/b, so every term is over b**e
    a, b, e = base.numerator, base.denominator, pattern.num_edges
    weights = tuple(a**j * b ** (e - j) for j in range(e + 1))
    value = _copy_overlap_mean(pattern, fixed, copies_in_complete(pattern, n), weights, b**e)
    return MomentResult(value=value, method=EXACT_INTERSECTION_MGF)


def second_moment_mc(
    mp: MomentParams, trials: int, rng: np.random.Generator
) -> MomentResult:
    """Sample mean of (1+lambda^2)^intersection with its standard error,
    both read off the histogram of intersections, so the chunk size moves
    neither. Only drawn bins are raised to their power; one past the float
    range reads inf, and so does a variance past it."""
    hist = _intersection_counts(mp.pattern, mp.n, trials, rng)
    drawn = np.flatnonzero(hist)
    counts = hist[drawn]
    with np.errstate(over="ignore"):
        values = np.power(1 + float(mp.lambda_sq), drawn)
        mean = float(counts @ values) / trials
        variance = float(counts @ (values - mean) ** 2) if math.isfinite(mean) else math.inf
    std_error = math.sqrt(variance / (trials - 1) / trials) if trials > 1 else 0.0
    return MomentResult(value=mean, method=MONTE_CARLO, std_error=std_error)


def risk_lower_bounds(second_moment, p, q, num_planted_edges: int):
    """(sm_bound, tv_edge_bound): two lower bounds on the optimal risk.

    sm_bound = max(1 - sqrt(E[L^2]-1)/2, 1/(2 E[L^2])) from the second
    moment; tv_edge_bound = 1 - |p-q|*|e(Gamma)| from convexity plus
    tensorization of total variation over the planted edges.
    """
    if second_moment < 1:
        raise InvalidMomentError(
            f"second moment must be >= 1, got {second_moment}"
        )
    sm = _float(second_moment)
    sm_bound = max(1 - math.sqrt(sm - 1) / 2, 1 / (2 * sm))
    tv_edge_bound = max(0.0, 1 - abs(p - q) * num_planted_edges)
    return sm_bound, tv_edge_bound


def _intersection_counts(pattern: Graph, n: int, trials: int, rng) -> np.ndarray:
    """Entry j: the trials whose uniform copy shares j edges with the fixed
    copy on 0..k-1. Images past k-1 are clamped to k, which no fixed edge
    touches, so a (k+1)x(k+1) table reads the shared edges. A trial's draw
    holds two n-rows of int64, and the chunks hold MC_CHUNK_BYTES of them;
    `Generator.permuted` draws row by row, so chunking changes no draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    k = pattern.n
    shared = np.zeros((k + 1, k + 1), dtype=bool)
    for u, v in pattern.edges:
        shared[u, v] = shared[v, u] = True
    rows = max(1, MC_CHUNK_BYTES // (16 * n))
    hist = np.zeros(pattern.num_edges + 1, dtype=np.int64)
    for done in range(0, trials, rows):
        images = np.minimum(batched_copy_images(pattern, n, min(rows, trials - done), rng), k)
        counts = np.zeros(len(images), dtype=np.int64)
        for a, c in pattern.edges:
            counts += shared[images[:, a], images[:, c]]
        hist += np.bincount(counts, minlength=len(hist))
    return hist


def _binomial_moment_sum(pattern: Graph, n: int, lambda_sq, max_degree: int):
    """sum over d <= D of lambda^(2d) E[C(I, d)], I the shared-edge count and
    D = max_degree; D >= |e| gives E[(1 + lambda^2)^I].

    Count c_j is weighted by w_j = sum over d <= D of lambda^(2d) C(j, d),
    built up as w_(j+1) = (1 + lambda^2) w_j - lambda^(2D+2) C(j, D). The
    count may spend what the edge-subset route is charged, 25 work units
    for each of the sum over d <= D of C(|e|, d) subsets, and no more than
    leaves that charge on the meter; past that, E[C(I, d)] is summed over
    the edge subsets of a fixed copy instead, which stays cheap at small D
    on large patterns with few twins. When the meter holds less than that
    charge, the count runs until the meter raises. D = 0 gives 1 at once.
    Rational throughout; a float lambda^2 is rounded only at the end, to
    inf past the float range.
    """
    depth = min(max_degree, pattern.num_edges)
    exact = isinstance(lambda_sq, (Fraction, int))
    if depth == 0:
        return Fraction(1) if exact else 1.0
    lam = Fraction(lambda_sq if exact else float(lambda_sq))
    price, room = _subset_price(pattern.num_edges, depth), left()
    # the count leaves the subsets room to run after it, unless they never fit
    limit = math.inf if price > room else min(price, room - price)
    counts = _shared_edge_counts(pattern, n, limit)
    if counts is None:
        moments = _subset_moments(pattern, n, depth)
        value = sum(lam**d * m for d, m in enumerate(moments))
    else:
        top = lam ** (depth + 1)
        total, weight = Fraction(0), Fraction(1)
        for j, c in enumerate(counts):
            total += c * weight
            weight = (1 + lam) * weight - top * math.comb(j, depth)
        value = total / math.perm(n, pattern.n)
    return value if exact else _float(value)


def _float(x) -> float:
    """float(x) of a moment (at least 1), reading inf past the float range
    rather than raising."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _shared_edge_counts(pattern: Graph, n: int, limit: float) -> list[int] | None:
    """c[j] = number of injections V(pattern) -> [n] whose image shares
    exactly j edges with the fixed copy on vertices 0..k-1; sum(c) = (n)_k;
    or None once its charges would pass `limit` work units.

    Vertices are placed in embedding order, each on an unused fixed-copy
    vertex, gaining its back-edges that land on fixed edges, or on one of
    the n-k outside vertices, which no fixed edge touches. A state is the
    set of used fixed vertices and the images of placed vertices that still
    have an unplaced neighbour. States that an automorphism of the fixed
    copy, or a swap of twin placed vertices, carries into each other have
    the same future, so they are merged:
    - permuting a twin class is an automorphism, so used vertices are always
      the first members of their class (a vertex goes to the first unused
      member, weighted by how many are unused), and an image is kept as the
      first member of its class: twins look alike to every vertex but each
      other, and no later vertex lands on that member;
    - placed twins have the same unplaced neighbours, so their images are
      sorted;
    - identical components of the fixed copy are put in order of their part
      of the state (`_component_sorter`).

    A state's counts are packed in one integer, count j at bit j*width, so
    gaining g edges is a shift and merging states is an addition. A state's
    transitions are charged to the meter before they are taken, 40 work
    units per step, each transition one step plus one per 4096 bits of
    counts it carries and one per 8 components it sorts.
    """
    k = pattern.n
    width = math.perm(n, k).bit_length()
    outside = k  # image off the fixed copy; bit k is in no adjacency mask
    adjacency = [sum(1 << int(w) for w in pattern.neighbors(f)) for f in range(k)] + [0]
    classes = _twin_classes(pattern)
    class_masks = [sum(1 << f for f in members) for members in classes]
    first = {f: members[0] for members in classes for f in members}
    sort_components, sort_units = _component_sorter(pattern)
    order, back, _ = _placement_plan(pattern)
    last = {j: i for i, b in enumerate(back) for j in b}  # last position with a back-edge to j
    spent = 0
    frontier: list[int] = []  # positions placed with a neighbour unplaced
    layer = {(0, ()): 1}
    for i in range(k):
        slot = {j: t for t, j in enumerate(frontier)}
        backs = [slot[j] for j in back[i]]
        placed = frontier + [i]
        # twins kept in the frontier sit side by side, in runs
        twin_class = [first[order[j]] for j in placed]
        keep = sorted(
            (t for t, j in enumerate(placed) if last.get(j, -1) > i),
            key=lambda t: (twin_class[t], placed[t]),
        )
        frontier = [placed[t] for t in keep]
        runs, start = [], 0
        for _, run in groupby(twin_class[t] for t in keep):
            size = len(list(run))
            if size > 1:
                runs.append(slice(start, start + size))
            start += size
        successors: dict[tuple[int, tuple[int, ...]], int] = {}
        for (used, images), packed in layer.items():
            free = n - k - (i - used.bit_count())
            choices = [(outside, free)] if free else []
            for members, mask in zip(classes, class_masks):
                taken = (used & mask).bit_count()
                if taken < len(members):
                    choices.append((members[taken], len(members) - taken))
            cost = 40 * (1 + sort_units + (packed.bit_length() >> 12)) * len(choices)
            spent += cost
            if spent > limit:
                return None
            spend("shared-edge count", cost)
            for f, ways in choices:
                gain = sum(adjacency[f] >> images[t] & 1 for t in backs)
                grown = images + (first.get(f, outside),)
                state = (used if f == outside else used | 1 << f, [grown[t] for t in keep])
                if sort_components:
                    state = sort_components(*state)
                for run in runs:
                    state[1][run] = sorted(state[1][run])
                key = (state[0], tuple(state[1]))
                successors[key] = successors.get(key, 0) + (packed * ways << gain * width)
        layer = successors
    packed = sum(layer.values())
    mask = (1 << width) - 1
    return [packed >> j * width & mask for j in range(pattern.num_edges + 1)]


def _component_sorter(pattern: Graph):
    """(sort, units): sort maps (used, images) to a state with the same
    future in which identical components come in order of their part of the
    state, and units is its work per call in the count's units; (None, 0) if no
    two components are identical.

    Components are identical when renaming each one's vertices in sorted
    order gives the same graph. Swapping them by that renaming is an
    automorphism, and it keeps first members of twin classes first.
    """
    alike: dict[Graph, list[list[int]]] = {}
    for comp in pattern.components():
        alike.setdefault(pattern.induced_subgraph(comp), []).append(comp)
    groups = [comps for comps in alike.values() if len(comps) > 1]
    if not groups:
        return None, 0
    tables = []
    for comps in groups:
        masks = [sum(1 << f for f in comp) for comp in comps]
        place = {f: (c, r) for c, comp in enumerate(comps) for r, f in enumerate(comp)}
        tables.append((comps, masks, sum(masks), place, {0: 0}))

    def sort_components(used: int, images: list[int]):
        for comps, masks, group_mask, place, local in tables:
            parts = []
            for mask in masks:
                bits = used & mask
                if bits not in local:  # bits of one component, in its own order
                    local[bits] = sum(1 << place[f][1] for f in _members(bits))
                parts.append([local[bits]])
            for t, x in enumerate(images):
                if x in place:
                    c, r = place[x]
                    parts[c].append((t, r))
            ranked = sorted(range(len(comps)), key=parts.__getitem__)
            if ranked == list(range(len(comps))):
                continue
            # the part of component ranked[j] moves to component j
            rename = {f: comps[j][r] for j, c in enumerate(ranked) for r, f in enumerate(comps[c])}
            moved = used & group_mask
            used ^= moved
            for f in _members(moved):
                used |= 1 << rename[f]
            images = [rename.get(x, x) for x in images]
        return used, images

    return sort_components, sum(len(comps) for comps in groups) >> 3


def _members(mask: int) -> list[int]:
    return [f for f in range(mask.bit_length()) if mask >> f & 1]


def _subset_moments(pattern: Graph, n: int, depth: int) -> list[Fraction]:
    """E[C(I, d)] for d = 0..depth: the sum over d-edge subsets H of a fixed
    copy Gamma of P[H inside a uniform copy] = N(H, Gamma) / N(H, K_n).

    The subsets are tallied by relabeled-edge key (equal keys are identical
    labeled graphs), and the keys merged by `_isomorphism_classes`, with
    `isomorphic` read by this module's name (bench/spans.py wraps it here).
    A class of w subsets has w = N(H, Gamma), so it adds w^2 / N(H, K_n).
    The subsets are charged, 25 units each, before they are enumerated.
    """
    edges = pattern.edges
    spend("edge subsets, after the shared-edge count ran out", _subset_price(len(edges), depth))
    tally = Counter(_relabel_key(s) for d in range(1, depth + 1) for s in combinations(edges, d))
    keyed = ((Graph(1 + max(v for edge in key for v in edge), key), c) for key, c in tally.items())
    moments = [Fraction(1)] + [Fraction(0)] * depth
    for rep, weight in _isomorphism_classes(keyed, isomorphic):
        moments[rep.num_edges] += Fraction(weight * weight, copies_in_complete(rep, n))
    return moments


def _subset_price(num_edges: int, depth: int) -> int:
    """What `_subset_moments` charges: 25 work units per subset of at most
    depth edges."""
    return 25 * sum(math.comb(num_edges, d) for d in range(depth + 1))


def _relabel_key(subset: tuple[tuple[int, int], ...]) -> tuple:
    """Edge tuple after renaming vertices to 0,1,... in sorted label order.

    Equal keys mean identical labeled graphs, so most isomorphic subsets
    collapse before any explicit isomorphism test runs.
    """
    vertices = sorted({v for edge in subset for v in edge})
    rename = {v: i for i, v in enumerate(vertices)}
    return tuple(sorted((rename[u], rename[v]) for u, v in subset))
