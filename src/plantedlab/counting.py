"""Exact counting oracles: copies of a pattern in a host graph, copies in
the complete graph, containment probabilities for a uniformly random copy,
and the copy-overlap mean of the likelihood-ratio test and pair
enumeration, which reads a graph as its row-major pair bits.

All results are exact integers or rationals. Each public call spends from
one work meter (`trace`), and the copy-overlap tally refuses past a memory
cap; either raises BudgetExceededError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial
from operator import mul

import numpy as np

from .errors import PlantedLabError
from .graphs import Graph
from .invariants import _embeddings, automorphism_count
from .sampling import _pair_index
from .trace import check_bytes, metered, spend

COPY_OVERLAP_BYTES = 10**7  # the copy-overlap arrays of about 10^6 copies
MASK_VERTICES = 11  # the most pattern vertices whose pairs fit a uint64 mask


@metered
def count_copies(pattern: Graph, host: Graph) -> int:
    """Number of distinct subgraphs of `host` isomorphic to `pattern`.

    Counts edge-preserving injective maps with the placement search of
    `invariants` and divides by |Aut(pattern)|, since each copy is the image
    of exactly that many embeddings.
    """
    if pattern.isolated_vertices():
        raise ValueError("pattern must have no isolated vertices")
    if pattern.n > host.n:
        raise ValueError("pattern has more vertices than the host")
    if pattern.n == 0:
        return 1
    embeddings = sum(1 for _ in _embeddings(pattern, host))
    aut = automorphism_count(pattern)
    assert embeddings % aut == 0
    return embeddings // aut


def copies_in_complete(pattern: Graph, n: int) -> int:
    """Number of copies of `pattern` in the complete graph on n vertices.

    Equals C(n, k) * k! / |Aut(pattern)| for k pattern vertices: choose the
    image, place it in every way, and collapse automorphic placements.
    """
    k = pattern.n
    if k > n:
        raise ValueError(f"pattern on {k} vertices cannot embed in K_{n}")
    return comb(n, k) * factorial(k) // automorphism_count(pattern)


@metered
def containment_probability(sub: Graph, pattern: Graph, n: int) -> Fraction:
    """P[fixed copy of `sub` lies inside a uniform copy of `pattern` in K_n].

    A double count of pairs (copy of sub, copy of pattern containing it)
    gives N(sub, pattern) / |copies of sub in K_n|. By symmetry the same
    value is the probability that a uniform copy of `pattern` contains any
    fixed placement of `sub`.
    """
    if sub.isolated_vertices() or pattern.isolated_vertices():
        raise ValueError("containment probability requires pattern graphs")
    if pattern.n > n:
        raise ValueError(f"pattern on {pattern.n} vertices cannot embed in K_{n}")
    if sub.n > pattern.n or sub.num_edges > pattern.num_edges:
        return Fraction(0)
    hits = count_copies(sub, pattern)
    return Fraction(hits, copies_in_complete(sub, n))


@lru_cache(maxsize=32)
def _labelled_copies(pattern: Graph) -> np.ndarray:
    """Edge bitmask of every labelled copy of the pattern on [k], sorted, as
    a read-only uint64 array; bit j stands for the j-th pair of
    `combinations(range(k), 2)`, so k <= `MASK_VERTICES`, or PlantedLabError.

    The labelled copies are the orbit of the pattern's edge set under
    adjacent transpositions, so the work is proportional to their number,
    k!/|Aut|, not to k!; each is charged for the transpositions it tries.
    """
    k = pattern.n
    if k > MASK_VERTICES:
        raise PlantedLabError(f"uint64 pair masks fit at most {MASK_VERTICES} vertices, got {k}")
    pairs = list(combinations(range(k), 2))
    bit = {pair: j for j, pair in enumerate(pairs)}
    swaps = []  # swaps[t][j]: pair j with labels t and t+1 exchanged
    for t in range(k - 1):
        relabel = list(range(k))
        relabel[t], relabel[t + 1] = t + 1, t
        swaps.append([bit[tuple(sorted((relabel[a], relabel[b])))] for a, b in pairs])
    start = frozenset(bit[edge] for edge in pattern.edges)
    orbit = {start}
    queue = [start]
    for labelled in queue:
        spend("labelled copies", 32 * len(swaps))
        for swap in swaps:
            image = frozenset(swap[j] for j in labelled)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    masks = sorted(sum(1 << j for j in labelled) for labelled in queue)
    masks = np.array(masks, dtype=np.uint64)
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=4)  # up to COPY_OVERLAP_BYTES each
def _subset_cells(pattern: Graph, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, weights, labelled): cells[j, s] is the `_pair_index` of the
    j-th pair (a, b) of `combinations(range(k), 2)` carried onto the s-th
    k-subset S of [n], weights[j] = 2**j, and labelled the `_labelled_copies`,
    for the pattern's k vertices. Refused past `COPY_OVERLAP_BYTES` of the
    tally's arrays: 9 bytes a copy, 8 a subset vertex and 17 a subset pair."""
    k = pattern.n
    needed = 9 * copies_in_complete(pattern, n) + comb(n, k) * (8 * k + 17 * comb(k, 2) + 8)
    check_bytes("copy-overlap tally", needed, COPY_OVERLAP_BYTES)
    labelled = _labelled_copies(pattern)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp).reshape(-1, k).T
    a, b = np.array(list(combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    cells = _pair_index(subsets[a], subsets[b], n)
    weights = np.uint64(1) << np.arange(a.size, dtype=np.uint64)
    for array in (cells, weights):
        array.flags.writeable = False
    return cells, weights, labelled


def _shared_edges(entry: tuple, bits: np.ndarray) -> np.ndarray:
    """shared[s, c]: the edges the c-th labelled copy, carried onto the s-th
    subset of the `_subset_cells` `entry`, shares with the pair `bits`."""
    cells, weights, labelled = entry
    inside = weights @ bits[cells]  # pair mask of each subset
    return np.bitwise_count(inside[:, None] & labelled)


def _copy_overlaps(pattern: Graph, n: int, bits: np.ndarray) -> list[int]:
    """tally[j] = number of copies of the pattern in K_n that share exactly
    j edges, j = 0..|e(pattern)|, with the graph of the row-major pair `bits`.

    A copy of a pattern without isolated vertices is its vertex set, a
    k-subset S of [n], and a labelled copy on [k] carried onto S in
    increasing order; it shares with the graph what the labelled copy shares
    with the pairs of the graph inside S, renamed onto [k].
    """
    shared = _shared_edges(_subset_cells(pattern, n), bits)
    return np.bincount(shared.ravel(), minlength=pattern.num_edges + 1).tolist()


def _copy_overlap_mean(
    pattern: Graph, n: int, bits: np.ndarray, copies: int, weights, denominator: int
) -> Fraction:
    """Mean over the `copies` copies of the pattern in K_n of
    weights[j] / denominator, j the edges a copy shares with the graph of
    the pair `bits`: the `_copy_overlaps` tally weighed in one integer sum,
    divided once. `weights` is a tuple, so that each distinct tally is
    weighed once (`_weighed_tally`)."""
    tally = _copy_overlaps(pattern, n, bits)
    assert sum(tally) == copies
    return _weighed_tally(tuple(tally), weights, denominator * copies)


@lru_cache(maxsize=1024)
def _weighed_tally(tally: tuple[int, ...], weights: tuple[int, ...], denominator: int) -> Fraction:
    """sum(tally[j] * weights[j]) / denominator, reduced once per distinct
    input: on small hosts many graphs share a tally, and the reduction of
    the sum is most of the likelihood-ratio test's cost there."""
    return Fraction(sum(map(mul, tally, weights)), denominator)
