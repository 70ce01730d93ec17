"""Brute-force reference implementations used to cross-check the package.

Everything here is the dumbest correct computation: exhaustive enumeration
over vertex subsets, permutations, edge subsets, or (for the exact risk
oracle) the entire observation space. None of it shares code or algorithmic
ideas with the implementations under test, except
`per_vertex_densest_vertex_set`, which reads the package's max flow the
slow way, and `embedding_automorphisms`, which counts automorphisms with
the package's placement search rather than its refinement.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np

from plantedlab import Graph
from plantedlab.invariants import _densest_cut, _embeddings


def random_graph(rng, n: int, p_edge: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p_edge]
    return Graph(n, edges)


def random_connected_graph(rng, n: int, p_edge: float) -> Graph:
    """ER graph forced connected by overlaying a random spanning tree."""
    edges = {e for e in combinations(range(n), 2) if rng.random() < p_edge}
    order = list(rng.permutation(n))
    for i in range(1, n):
        u = order[i]
        v = order[rng.integers(0, i)]
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_pattern(rng, max_vertices: int, p_edge: float = 0.5) -> Graph:
    """Nonempty graph without isolated vertices, as the planted model needs."""
    while True:
        n = int(rng.integers(2, max_vertices + 1))
        g = random_graph(rng, n, p_edge)
        if g.num_edges:
            return g.without_isolated()


def swapped_relabelling(rng, a: Graph, max_swaps: int) -> Graph:
    """`a` after up to `max_swaps` random double edge swaps, relabelled at
    random: the degree sequence stays, the isomorphism class may not."""
    edges = set(a.edges)
    for _ in range(int(rng.integers(0, max_swaps + 1)) if len(edges) > 1 else 0):
        i, j = rng.choice(len(edges), 2, replace=False)
        (u, v), (x, y) = sorted(edges)[i], sorted(edges)[j]
        swapped = {(min(u, y), max(u, y)), (min(x, v), max(x, v))}
        if len({u, v, x, y}) == 4 and not swapped & edges:
            edges = (edges - {(u, v), (x, y)}) | swapped
    perm = rng.permutation(a.n)
    return Graph(a.n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def random_cubic_graph(rng, n: int) -> Graph:
    """Uniform 3-regular graph on an even n: pair 3n stubs at random until
    the pairing has no loop and no double edge."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in stubs}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def prism(n: int) -> Graph:
    """Two n-cycles joined by n rungs."""
    rim = [(i, (i + 1) % n) for i in range(n)]
    edges = rim + [(n + u, n + v) for u, v in rim] + [(i, n + i) for i in range(n)]
    return Graph(2 * n, [(min(u, v), max(u, v)) for u, v in edges])


def moebius_ladder(n: int) -> Graph:
    """A 2n-cycle with its n long diagonals: cubic, like the prism, and not
    isomorphic to it."""
    edges = [(i, (i + 1) % (2 * n)) for i in range(2 * n)]
    edges += [(i, i + n) for i in range(n)]
    return Graph(2 * n, [(min(u, v), max(u, v)) for u, v in edges])


def hub_joined(parts: list[Graph]) -> Graph:
    """The disjoint union of `parts` plus one vertex joined to all of them."""
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    return Graph(offset + 1, edges + [(v, offset) for v in range(offset)])


def brute_max_density(g: Graph) -> Fraction:
    best = Fraction(0)
    verts = range(g.n)
    for size in range(1, g.n + 1):
        for subset in combinations(verts, size):
            inside = set(subset)
            edges = sum(1 for u, v in g.edges if u in inside and v in inside)
            best = max(best, Fraction(edges, size))
    return best


def brute_densest_vertex_set(g: Graph) -> list[int]:
    """Smallest, then lexicographically smallest, maximizer of density."""
    best = (Fraction(-1), 0, ())
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            inside = set(subset)
            edges = sum(1 for u, v in g.edges if u in inside and v in inside)
            key = (Fraction(edges, size), -size, tuple(-v for v in subset))
            if key > best:
                best = key
    return sorted(-v for v in best[2])


def per_vertex_densest_vertex_set(g: Graph) -> list[int]:
    """The tie rule read off the package's final max flow one vertex at a
    time: what {source, v} reaches in the residual graph is the minimal
    optimal set holding v, or holds the sink when v is in no optimal set.
    It shares the flow with the package, but not the reading of it."""
    _, dinic = _densest_cut(g)
    first, sink = 1 + g.num_edges, 1 + g.num_edges + g.n
    best = None
    for v in range(g.n):
        reach = dinic.reachable(0, first + v)
        core = [w for w in range(g.n) if reach[first + w]]
        if not reach[sink] and (best is None or (len(core), core) < (len(best), best)):
            best = core
    return best


def brute_vertex_cover(g: Graph) -> int:
    if not g.edges:
        return 0
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            inside = set(subset)
            if all(u in inside or v in inside for u, v in g.edges):
                return size
    raise AssertionError("unreachable")


def brute_automorphisms(g: Graph) -> int:
    edges = set(g.edges)
    count = 0
    for perm in permutations(range(g.n)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
        if mapped == edges:
            count += 1
    return count


def embedding_automorphisms(g: Graph) -> int:
    """|Aut(G)| as the number of edge-preserving injections of G into
    itself, each of which is an automorphism. Past brute force, but it
    walks every automorphism, so keep |Aut| small."""
    return sum(1 for _ in _embeddings(g, g))


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n:
        return False
    target = set(b.edges)
    return any(
        {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in a.edges} == target
        for perm in permutations(range(a.n))
    )


def brute_copies(pattern: Graph, host: Graph) -> int:
    """Distinct subgraphs of `host` isomorphic to `pattern` (as edge sets)."""
    p = pattern.without_isolated()
    host_edges = set(host.edges)
    seen = set()
    for verts in permutations(range(host.n), p.n):
        mapped = frozenset(
            (min(verts[u], verts[v]), max(verts[u], verts[v])) for u, v in p.edges
        )
        if mapped <= host_edges:
            seen.add(mapped)
    return len(seen)


def brute_copies_in_complete(pattern: Graph, n: int) -> int:
    p = pattern.without_isolated()
    seen = set()
    for verts in permutations(range(n), p.n):
        seen.add(
            frozenset(
                (min(verts[u], verts[v]), max(verts[u], verts[v]))
                for u, v in p.edges
            )
        )
    return len(seen)


def brute_connected_sets(g: Graph, size: int, anchor: int) -> int:
    count = 0
    for subset in combinations(range(g.n), size):
        if anchor in subset and g.induced_subgraph(subset).is_connected():
            count += 1
    return count


def brute_spanning_trees(g: Graph) -> int:
    if g.n <= 1:
        return 1
    count = 0
    for subset in combinations(g.edges, g.n - 1):
        t = Graph(g.n, subset)
        if t.is_connected():
            count += 1
    return count


def brute_scan_statistic(obs_adj: np.ndarray, target: Graph) -> int:
    """max over injective placements of `target` of the observed edge count."""
    t = target.without_isolated()
    n = obs_adj.shape[0]
    best = 0
    for verts in permutations(range(n), t.n):
        hits = sum(1 for u, v in t.edges if obs_adj[verts[u], verts[v]])
        best = max(best, hits)
    return best


def reference_sample(
    n: int, q: float, rng, pattern: Graph | None = None, p: float | None = None
) -> tuple[np.ndarray, tuple[int, ...], frozenset]:
    """The samplers' draw contract written out plainly: (adjacency, vertex
    map, copy edges). With a pattern, the copy's vertex map is drawn first
    (a permutation of [0, n) truncated to the pattern size); then one uniform
    per pair of all_pairs(n) is compared with a per-pair threshold (p on copy
    pairs, q elsewhere) and the bits fill the upper triangle in that order.
    Without a pattern there is no copy and every threshold is q."""
    pairs = all_pairs(n)
    thresholds = np.full(len(pairs), q)
    images, copy_edges = (), frozenset()
    if pattern is not None:
        images = tuple(int(v) for v in rng.permutation(n)[: pattern.n])
        copy_edges = frozenset(
            (min(images[u], images[v]), max(images[u], images[v]))
            for u, v in pattern.edges
        )
        position = {pair: i for i, pair in enumerate(pairs)}
        for pair in copy_edges:
            thresholds[position[pair]] = p
    bits = rng.random(len(pairs)) < thresholds
    a = np.zeros((n, n), dtype=bool)
    a[np.triu_indices(n, 1)] = bits
    a |= a.T
    return a, images, copy_edges


def hypergeom_pmf(total: int, marked: int, drawn: int) -> dict[int, Fraction]:
    """P[H = h] for H ~ Hypergeometric(total, marked, drawn), exact."""
    pmf = {}
    for h in range(max(0, drawn + marked - total), min(marked, drawn) + 1):
        pmf[h] = Fraction(
            comb(marked, h) * comb(total - marked, drawn - h), comb(total, drawn)
        )
    return pmf


# ---------------------------------------------------------------------------
# Exact distributions over the full observation space (small n only).
# ---------------------------------------------------------------------------

def all_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def copy_masks(pattern: Graph, n: int) -> list[int]:
    """Every copy of `pattern` in K_n as a bitmask over all_pairs(n)."""
    p = pattern.without_isolated()
    bit = {pair: i for i, pair in enumerate(all_pairs(n))}
    seen = set()
    for verts in permutations(range(n), p.n):
        mask = 0
        for u, v in p.edges:
            a, b = verts[u], verts[v]
            mask |= 1 << bit[(min(a, b), max(a, b))]
        seen.add(mask)
    return sorted(seen)


def brute_intersection_law(pattern: Graph, n: int) -> list[Fraction]:
    """P[I = j] for j = 0..|e|, I the edges a uniform copy shares with the
    copy at vertices 0..k-1. Every copy is the image of |Aut| injections, so
    the law over copies is the law over injections."""
    bit = {pair: i for i, pair in enumerate(all_pairs(n))}
    fixed = sum(1 << bit[e] for e in pattern.edges)
    masks = copy_masks(pattern, n)
    law = [Fraction(0)] * (pattern.num_edges + 1)
    for mask in masks:
        law[(mask & fixed).bit_count()] += Fraction(1, len(masks))
    return law


def exact_distributions(
    pattern: Graph, n: int, p: Fraction, q: Fraction
) -> tuple[list[Fraction], list[Fraction]]:
    """(P_H0, P_H1) over all 2^C(n,2) observations, exact rationals.

    P_H1 is the uniform mixture over planted copies: copy edges flip with
    probability p, all other pairs with probability q.
    """
    pairs = all_pairs(n)
    total_pairs = len(pairs)
    masks = copy_masks(pattern, n)
    m = pattern.num_edges
    # L(G) summand for a copy sharing a edges with G is r[a] below; P1 = P0*L
    ratio = [
        (Fraction(p) / q) ** a * (Fraction(1 - p) / (1 - q)) ** (m - a)
        for a in range(m + 1)
    ]
    q_pow = [Fraction(q) ** i * Fraction(1 - q) ** (total_pairs - i) for i in range(total_pairs + 1)]
    null = []
    planted = []
    for obs in range(1 << total_pairs):
        edges = obs.bit_count()
        p0 = q_pow[edges]
        likelihood = Fraction(0)
        for mask in masks:
            likelihood += ratio[(obs & mask).bit_count()]
        likelihood /= len(masks)
        null.append(p0)
        planted.append(p0 * likelihood)
    return null, planted


def tv_distance(null: list[Fraction], planted: list[Fraction]) -> Fraction:
    return sum(abs(a - b) for a, b in zip(null, planted)) / 2


def exact_risk(
    decisions: list[int], null: list[Fraction], planted: list[Fraction]
) -> Fraction:
    type1 = sum(p0 for p0, d in zip(null, decisions) if d)
    type2 = sum(p1 for p1, d in zip(planted, decisions) if not d)
    return type1 + type2


def brute_second_moment(
    pattern: Graph, n: int, p: Fraction, q: Fraction
) -> Fraction:
    """E_H0[L^2] = sum_G P1(G)^2 / P0(G), straight from the definition."""
    null, planted = exact_distributions(pattern, n, p, q)
    return sum(p1 * p1 / p0 for p0, p1 in zip(null, planted))
