"""Exact counting oracles: copies of a pattern in a host graph, copies in
the complete graph, containment probabilities for a uniformly random copy,
spanning trees, and connected vertex sets.

All results are exact integers or rationals. Each public call spends from
one work meter (`trace`), and the copy-overlap tally refuses past a memory
cap; either raises BudgetExceededError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, factorial

import numpy as np

from .errors import DisconnectedError, PlantedLabError
from .graphs import Graph
from .invariants import _embeddings, automorphism_count
from .trace import check_bytes, metered, spend

COPY_OVERLAP_BYTES = 10**7  # the copy-overlap arrays of about 10^6 copies


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
    `combinations(range(k), 2)`, so k is at most 11, or PlantedLabError.

    The labelled copies are the orbit of the pattern's edge set under
    adjacent transpositions, so the work is proportional to their number,
    k!/|Aut|, not to k!; each is charged for the transpositions it tries.
    """
    k = pattern.n
    pairs = list(combinations(range(k), 2))
    if len(pairs) > 64:
        raise PlantedLabError(f"uint64 pair masks fit at most 11 vertices, got {k}")
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
def _subset_cells(pattern: Graph, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, weights): cells[s, j] is the flat index S[a]*n + S[b] of the
    j-th pair (a, b) of `combinations(range(k), 2)` carried onto the s-th
    k-subset S of [n], for the pattern's k vertices, and weights[j] = 2**j.
    Refused past `COPY_OVERLAP_BYTES` of the tally's arrays: 9 bytes a copy,
    8 a subset vertex and 17 a subset pair."""
    k = pattern.n
    needed = 9 * copies_in_complete(pattern, n) + comb(n, k) * (8 * k + 17 * comb(k, 2) + 8)
    check_bytes("copy-overlap tally", needed, COPY_OVERLAP_BYTES)
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), k)), np.intp).reshape(-1, k)
    a, b = np.array(list(combinations(range(k), 2)), dtype=np.intp).reshape(-1, 2).T
    cells = subsets[:, a] * n + subsets[:, b]
    weights = np.uint64(1) << np.arange(a.size, dtype=np.uint64)
    for array in (cells, weights):
        array.flags.writeable = False
    return cells, weights


def _copy_overlaps(pattern: Graph, n: int, adjacency: np.ndarray) -> list[int]:
    """tally[j] = number of copies of the pattern in K_n that share exactly
    j edges with the graph of the (n, n) boolean `adjacency`, for
    j = 0..|e(pattern)|; only its upper triangle is read.

    A copy of a pattern without isolated vertices is its vertex set, a
    k-subset S of [n], and a labelled copy on [k] carried onto S in
    increasing order; it shares with the graph what the labelled copy shares
    with the pairs of the graph inside S, renamed onto [k].
    """
    cells, weights = _subset_cells(pattern, n)
    inside = adjacency.ravel()[cells] @ weights  # pair mask of each subset
    shared = np.bitwise_count(inside[:, None] & _labelled_copies(pattern))
    return np.bincount(shared.ravel(), minlength=pattern.num_edges + 1).tolist()


@metered
def spanning_tree_count(g: Graph) -> int:
    """Exact spanning tree count by the matrix-tree theorem.

    Evaluates one cofactor of the combinatorial Laplacian with fraction-free
    (Bareiss) elimination, so every intermediate value is an integer and the
    result is exact. The elimination's updates, sum_k (size-1-k)^2 for the
    size-by-size cofactor, are charged before it starts.
    """
    size = g.n - 1
    updates = (size - 1) * size * (2 * size - 1) // 6
    spend("spanning tree count", 20 * updates)
    if not g.is_connected():
        raise DisconnectedError("spanning trees exist only for connected graphs")
    if g.n <= 1:
        return 1
    lap = [[0] * size for _ in range(size)]
    for v in range(size):
        lap[v][v] = g.degree(v)
    for u, v in g.edges:
        if u < size and v < size:
            lap[u][v] -= 1
            lap[v][u] -= 1
    return _bareiss_determinant(lap)


def _bareiss_determinant(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@metered
def connected_sets_count(g: Graph, size: int, anchor: int) -> int:
    """Number of connected vertex sets of the given size containing `anchor`.

    Grow-set enumeration: extend the current set one frontier vertex at a
    time, in increasing order, forbidding the vertices already branched on
    so each set is visited exactly once. An explicit stack holds one level
    per vertex added, so the depth is not bounded by Python's recursion
    limit. Each extension is charged as it is taken.
    """
    if not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} not a vertex of the graph")
    if not 1 <= size <= g.n:
        raise ValueError(f"set size {size} out of range 1..{g.n}")
    if size == 1:
        return 1
    total = 0
    frontier = set(g.neighbors(anchor))
    # each level: (set, its frontier, frontier vertices left to try, blocked)
    stack = [(frozenset((anchor,)), frontier, iter(sorted(frontier)), {anchor})]
    while stack:
        current, frontier, untried, blocked = stack[-1]
        u = next(untried, None)
        if u is None:
            stack.pop()
            continue
        spend("connected-set count", 30)
        grown = current | {u}
        if len(grown) == size:
            total += 1
        else:
            ahead = (frontier | g.neighbors(u)) - grown - blocked
            stack.append((grown, ahead, iter(sorted(ahead)), set(blocked)))
        blocked.add(u)
    return total
