"""Exact counting oracles: copies of a pattern in a host graph, copies in
the complete graph, containment probabilities for a uniformly random copy,
spanning trees, and connected vertex sets.

All results are exact integers or rationals. Enumeration work is metered
against explicit budgets; exceeding one raises BudgetExceededError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from .errors import BudgetExceededError, DisconnectedError
from .graphs import Graph
from .invariants import _embeddings, automorphism_count

EMBEDDING_BUDGET_DEFAULT = 10_000_000
CONNECTED_SETS_BUDGET_DEFAULT = 10_000_000
SPANNING_TREE_VERTEX_LIMIT = 20


def count_copies(
    pattern: Graph, host: Graph, budget: int = EMBEDDING_BUDGET_DEFAULT
) -> int:
    """Number of distinct subgraphs of `host` isomorphic to `pattern`.

    Counts edge-preserving injective maps with the placement search of
    `invariants` and divides by |Aut(pattern)|, since each copy is the image
    of exactly that many embeddings. The budget meters attempted partial
    assignments.
    """
    if pattern.isolated_vertices():
        raise ValueError("pattern must have no isolated vertices")
    if pattern.n > host.n:
        raise ValueError("pattern has more vertices than the host")
    if pattern.n == 0:
        return 1
    embeddings = sum(1 for _ in _embeddings(pattern, host, budget))
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


def containment_probability(
    sub: Graph,
    pattern: Graph,
    n: int,
    budget: int = EMBEDDING_BUDGET_DEFAULT,
) -> Fraction:
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
    hits = count_copies(sub, pattern, budget=budget)
    return Fraction(hits, copies_in_complete(sub, n))


@lru_cache(maxsize=32)
def _labelled_copies(pattern: Graph) -> np.ndarray:
    """Edge bitmask of every labelled copy of the pattern on [k], sorted, as
    a read-only uint64 array; bit j stands for the j-th pair of
    `combinations(range(k), 2)`, so k is at most 11.

    The labelled copies are the orbit of the pattern's edge set under
    adjacent transpositions, so the work is proportional to their number,
    k!/|Aut|, not to k!.
    """
    k = pattern.n
    pairs = list(combinations(range(k), 2))
    assert len(pairs) <= 64, "pair masks are uint64"
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
        for swap in swaps:
            image = frozenset(swap[j] for j in labelled)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    masks = sorted(sum(1 << j for j in labelled) for labelled in queue)
    masks = np.array(masks, dtype=np.uint64)
    masks.flags.writeable = False
    return masks


@lru_cache(maxsize=32)
def _subset_cells(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, weights): cells[s, j] is the flat index S[a]*n + S[b] of the
    j-th pair (a, b) of `combinations(range(k), 2)` carried onto the s-th
    k-subset S of [n], and weights[j] = 2**j."""
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
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
    cells, weights = _subset_cells(pattern.n, n)
    inside = adjacency.ravel()[cells] @ weights  # pair mask of each subset
    shared = np.bitwise_count(inside[:, None] & _labelled_copies(pattern))
    return np.bincount(shared.ravel(), minlength=pattern.num_edges + 1).tolist()


def spanning_tree_count(g: Graph, budget: int = SPANNING_TREE_VERTEX_LIMIT) -> int:
    """Exact spanning tree count by the matrix-tree theorem.

    Evaluates one cofactor of the combinatorial Laplacian with fraction-free
    (Bareiss) elimination, so every intermediate value is an integer and the
    result is exact at any size the budget admits.
    """
    if g.n > budget:
        raise BudgetExceededError(
            f"spanning tree budget: {g.n} vertices > budget {budget}"
        )
    if not g.is_connected():
        raise DisconnectedError("spanning trees exist only for connected graphs")
    if g.n <= 1:
        return 1
    size = g.n - 1
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


def connected_sets_count(
    g: Graph,
    size: int,
    anchor: int,
    budget: int = CONNECTED_SETS_BUDGET_DEFAULT,
) -> int:
    """Number of connected vertex sets of the given size containing `anchor`.

    Grow-set enumeration: extend the current set one frontier vertex at a
    time, forbidding previously branched-on vertices so each set is visited
    exactly once. The budget meters recursion steps.
    """
    if not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} not a vertex of the graph")
    if not 1 <= size <= g.n:
        raise ValueError(f"set size {size} out of range 1..{g.n}")
    steps = 0

    def grow(current: frozenset[int], frontier: set[int], forbidden: set[int]) -> int:
        nonlocal steps
        if len(current) == size:
            return 1
        total = 0
        blocked = set(forbidden)
        for u in sorted(frontier):
            steps += 1
            if steps > budget:
                raise BudgetExceededError(
                    f"connected-set budget of {budget} steps exceeded"
                )
            grown = current | {u}
            new_frontier = (frontier | g.neighbors(u)) - grown - blocked
            new_frontier.discard(u)
            total += grow(grown, new_frontier, blocked)
            blocked.add(u)
        return total

    start = frozenset((anchor,))
    return grow(start, set(g.neighbors(anchor)), {anchor})
