"""Exact graph invariants: maximum subgraph density, densest subgraph,
vertex cover number, automorphism count, isomorphism, and an aggregate
stats record. One placement search (edge-preserving injections, by
backtracking) serves copy counting, automorphisms and isomorphism; its plan
and the twin classes also drive the scan and the shared-edge count.

Everything here is exact. Density values are rationals, counts are
arbitrary-precision integers, and every potentially expensive oracle takes an
explicit budget and raises BudgetExceededError instead of approximating.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from math import factorial, inf
from typing import Iterator

from .errors import BudgetExceededError, EmptyGraphError
from .graphs import Graph

COVER_BUDGET_DEFAULT = 40
AUT_BUDGET_DEFAULT = 10


@dataclass(frozen=True)
class GraphStats:
    """Every invariant the threshold formulas consume, computed exactly."""

    num_vertices: int
    num_edges: int
    max_degree: int
    density: Fraction
    max_subgraph_density: Fraction
    vertex_cover_number: int
    num_components: int
    automorphism_count: int


def graph_stats(
    g: Graph,
    cover_budget: int = COVER_BUDGET_DEFAULT,
    aut_budget: int = AUT_BUDGET_DEFAULT,
) -> GraphStats:
    if g.n == 0:
        raise EmptyGraphError("stats of the empty graph are undefined")
    return GraphStats(
        num_vertices=g.n,
        num_edges=g.num_edges,
        max_degree=g.max_degree(),
        density=Fraction(g.num_edges, g.n),
        max_subgraph_density=max_subgraph_density(g),
        vertex_cover_number=vertex_cover_number(g, budget=cover_budget),
        num_components=len(g.components()),
        automorphism_count=automorphism_count(g, budget=aut_budget),
    )


# ---------------------------------------------------------------------------
# Maximum subgraph density mu(G) = max over nonempty H of |e(H)| / |v(H)|
# ---------------------------------------------------------------------------

def max_subgraph_density(g: Graph) -> Fraction:
    """Exact mu(G) by Dinkelbach's iteration on Goldberg's max-flow network
    (:func:`_densest_cut`): each flow either certifies its guess or yields a
    denser set, so a random host takes one or two flows."""
    if g.n == 0:
        raise EmptyGraphError("density of the empty graph is undefined")
    return _densest_cut(g)[0]


def densest_subgraph(g: Graph) -> Graph:
    """A subgraph attaining mu(G), relabeled to 0..k-1.

    Tie-breaking is deterministic: among optimal vertex sets, the smallest
    cardinality wins, then the lexicographically smallest sorted vertex
    tuple. The scan statistic depends on this choice being reproducible.
    """
    vs = densest_vertex_set(g)
    return g.induced_subgraph(vs)


def densest_vertex_set(g: Graph) -> list[int]:
    """The tie-broken optimal vertex set behind :func:`densest_subgraph`.

    Read from the max flow at mu (Picard-Queyranne): the min cuts are the
    residual-closed node sets holding the source but not the sink, and the
    vertex nodes on a min cut's source side, if any, form an optimal set.
    So what {source, v} reaches in the residual graph is the minimal optimal
    set containing v, or holds the sink if v is in no optimal set. Every
    minimum-cardinality optimal set is such a core (of any of its vertices),
    so the tie rule picks among them. One search backwards from the sink
    first finds the vertices in no optimal set, which need no search of
    their own.
    """
    if g.n == 0:
        raise EmptyGraphError("densest subgraph of the empty graph is undefined")
    _, dinic = _densest_cut(g)
    first = 1 + g.num_edges  # node of vertex 0; the sink follows vertex n-1
    to_sink = dinic.reachable(first + g.n, reverse=True)
    best: list[int] | None = None
    for v in range(g.n):
        if to_sink[first + v]:
            continue
        reach = dinic.reachable(0, first + v)
        core = [w for w in range(g.n) if reach[first + w]]
        if best is None or (len(core), core) < (len(best), best):
            best = core
    assert best is not None, "some vertex lies in an optimal set"
    return best


def _densest_cut(g: Graph) -> tuple[Fraction, _Dinic]:
    """(mu, the max-flow network at mu), by Dinkelbach's iteration on
    Goldberg's network.

    At a guess num/den the nodes are 0 = source, 1..m edge nodes, m+1..m+n
    vertex nodes and the sink last: source -> edge den, edge -> both
    endpoints unbounded, vertex -> sink num. A cut whose source side holds
    the vertex set S costs at least den*(m - e(S)) + num*|S|, so the max
    flow is den*m exactly when no S has e(S)/|S| > num/den, which certifies
    the guess. Otherwise the source side of the minimal min cut is a denser
    S, and the next guess is e(S)/|S|. Guesses rise strictly through the
    finitely many densities, starting from m/n.
    """
    m = g.num_edges
    guess = Fraction(m, g.n)
    while True:
        num, den = guess.numerator, guess.denominator
        dinic = _Dinic(m + g.n + 2)
        sink = m + g.n + 1
        unbounded = den * m + 1  # more than the source can send
        for j, (u, v) in enumerate(g.edges):
            dinic.add(0, 1 + j, den)
            dinic.add(1 + j, 1 + m + u, unbounded)
            dinic.add(1 + j, 1 + m + v, unbounded)
        for v in range(g.n):
            dinic.add(1 + m + v, sink, num)
        if dinic.max_flow(0, sink) == den * m:
            return guess, dinic
        reach = dinic.reachable(0)
        guess = Fraction(sum(reach[1 : 1 + m]), sum(reach[1 + m : sink]))


class _Dinic:
    """Plain integer Dinic max-flow; sized for a few thousand nodes."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, None, level, it)
                if not pushed:
                    break
                flow += pushed

    def _bfs(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, limit, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            eid = self.head[u][it[u]]
            v = self.to[eid]
            if self.cap[eid] > 0 and level[v] == level[u] + 1:
                avail = self.cap[eid] if limit is None else min(limit, self.cap[eid])
                pushed = self._dfs(v, t, avail, level, it)
                if pushed:
                    self.cap[eid] -= pushed
                    self.cap[eid ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def reachable(self, *starts: int, reverse: bool = False) -> list[bool]:
        """Residual reachability from `starts` after max_flow; from the
        source alone, the source side of the minimal min cut. With
        `reverse`, the nodes that reach `starts` instead."""
        seen = [False] * self.n
        for s in starts:
            seen[s] = True
        queue = list(starts)
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid ^ reverse] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


# ---------------------------------------------------------------------------
# Vertex cover number tau(G)
# ---------------------------------------------------------------------------

def vertex_cover_number(g: Graph, budget: int = COVER_BUDGET_DEFAULT) -> int:
    """Exact minimum vertex cover size by branch and bound.

    Degree-0 vertices are dropped, degree-1 vertices are resolved by taking
    the neighbor (always safe), and branching picks a maximum-degree vertex:
    either it joins the cover or all its neighbors do. A greedy matching
    lower-bounds each subproblem for pruning.

    Raises BudgetExceededError when the graph has more than `budget`
    vertices; raise the budget rather than trusting an approximation.
    """
    if g.n > budget:
        raise BudgetExceededError(
            f"vertex cover budget: {g.n} vertices > budget {budget}"
        )
    adj = {v: set(g.neighbors(v)) for v in range(g.n) if g.degree(v) > 0}
    best = _vc_upper_bound(adj)
    return _vc_branch(adj, 0, best)


def matching_cover_bound(g: Graph) -> tuple[int, int]:
    """(maximal matching size, 2x matching) = (lower, upper) bounds on tau.

    This is the explicit 2-approximation fallback; it is never substituted
    for the exact count silently.
    """
    used: set[int] = set()
    size = 0
    for u, v in g.edges:
        if u not in used and v not in used:
            used.update((u, v))
            size += 1
    return size, 2 * size


def _vc_upper_bound(adj: dict[int, set[int]]) -> int:
    work = {v: set(ns) for v, ns in adj.items()}
    cover = 0
    while True:
        live = [(len(ns), v) for v, ns in work.items() if ns]
        if not live:
            return cover
        _, v = max(live)
        cover += 1
        for w in work[v]:
            work[w].discard(v)
        work[v] = set()


def _vc_matching_lb(adj: dict[int, set[int]]) -> int:
    used: set[int] = set()
    size = 0
    for v in adj:
        if v in used or not adj[v]:
            continue
        for w in adj[v]:
            if w not in used and w != v:
                used.update((v, w))
                size += 1
                break
    return size


def _vc_branch(adj: dict[int, set[int]], taken: int, best: int) -> int:
    adj = {v: set(ns) for v, ns in adj.items() if ns}
    # Reductions: resolve pendant vertices by taking their neighbors.
    changed = True
    while changed:
        changed = False
        for v in list(adj.keys()):
            ns = adj.get(v)
            if ns is None or len(ns) != 1:
                continue
            (w,) = ns
            taken += 1
            for x in list(adj.get(w, ())):
                adj[x].discard(w)
                if not adj[x]:
                    del adj[x]
            adj.pop(w, None)
            adj.pop(v, None)
            changed = True
            if taken >= best:
                return best
    if not adj:
        return min(best, taken)
    if taken + _vc_matching_lb(adj) >= best:
        return best
    v = max(adj, key=lambda u: (len(adj[u]), -u))
    neighbors = set(adj[v])

    # Branch 1: v in the cover.
    sub = {u: ns - {v} for u, ns in adj.items() if u != v}
    best = _vc_branch(sub, taken + 1, best)

    # Branch 2: v not in the cover, so all its neighbors are.
    if taken + len(neighbors) < best:
        removed = neighbors | {v}
        sub = {u: ns - removed for u, ns in adj.items() if u not in removed}
        best = _vc_branch(sub, taken + len(neighbors), best)
    return best


# ---------------------------------------------------------------------------
# Placement search: edge-preserving injections of a pattern into a host
# ---------------------------------------------------------------------------

def _embedding_order(pattern: Graph) -> list[int]:
    """Vertex order that keeps each prefix as connected as possible: next is
    the highest-degree, then lowest, vertex adjacent to a placed one, if any."""
    rank = {v: (-pattern.degree(v), v) for v in range(pattern.n)}
    order: list[int] = []
    placed = [False] * pattern.n
    for seed in sorted(rank, key=rank.__getitem__):
        heap = [rank[seed]]  # unplaced neighbours of placed vertices, or stale
        while heap:
            v = heappop(heap)[1]
            if not placed[v]:
                placed[v] = True
                order.append(v)
                for w in pattern.neighbors(v):
                    heappush(heap, rank[w])
    return order


def _placement_plan(pattern: Graph) -> tuple[list[int], list[list[int]]]:
    """(order, back): the vertices in `_embedding_order`, and for each
    position the positions of its neighbours placed before it."""
    order = _embedding_order(pattern)
    position = {v: i for i, v in enumerate(order)}
    back = [
        [position[w] for w in pattern.neighbors(v) if position[w] < i]
        for i, v in enumerate(order)
    ]
    return order, back


def _twin_classes(pattern: Graph) -> list[list[int]]:
    """Vertices with equal open, or else equal closed, neighbourhoods; no
    vertex has twins of both kinds, so the classes partition the vertices.
    Permuting a class is an automorphism."""
    opens = Counter(pattern.neighbors(v) for v in range(pattern.n))
    classes: dict[frozenset[int], list[int]] = {}
    for v in range(pattern.n):
        nbrs = pattern.neighbors(v)
        classes.setdefault(nbrs if opens[nbrs] > 1 else nbrs | {v}, []).append(v)
    return list(classes.values())


def _embeddings(
    pattern: Graph, host: Graph, budget: float = inf
) -> Iterator[list[int]]:
    """Every edge-preserving injection of `pattern` into `host`.

    Backtracks along the placement plan with an explicit stack: a vertex's
    candidates are the common host neighbours of its placed neighbours, of
    at least its degree. Yields the host image of each plan position, in one list that
    is reused between embeddings, so a caller may stop at the first. The
    budget meters attempted partial assignments.
    """
    order, back = _placement_plan(pattern)
    k = len(order)
    degs = [pattern.degree(v) for v in order]
    host_degree = host.degrees()
    host_adj = [host.neighbors(u) for u in range(host.n)]
    images = [-1] * k
    used = [False] * host.n
    attempts = 0
    if k == 0:
        yield images
        return
    stack = [iter(range(host.n))]  # candidates of each placed position
    while stack:
        i = len(stack) - 1
        if images[i] >= 0:
            used[images[i]] = False
            images[i] = -1
        for u in stack[i]:
            if not used[u] and host_degree[u] >= degs[i]:
                break
        else:
            stack.pop()
            continue
        attempts += 1
        if attempts > budget:
            raise BudgetExceededError(
                f"embedding budget of {budget} partial assignments exceeded"
            )
        images[i] = u
        used[u] = True
        if i + 1 == k:
            yield images
            continue
        backs = back[i + 1]
        if not backs:
            stack.append(iter(range(host.n)))
            continue
        common = host_adj[images[backs[0]]]
        for j in backs[1:]:
            common = common & host_adj[images[j]]
        stack.append(iter(common))


# ---------------------------------------------------------------------------
# Automorphism count |Aut(G)|
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def automorphism_count(g: Graph, budget: int = AUT_BUDGET_DEFAULT) -> int:
    """|Aut(G)| as a product over connected components.

    For components C_1..C_r grouped into isomorphism classes with
    multiplicities m_i, |Aut(G)| = prod_i m_i! * |Aut(C_i)|^{m_i}.
    Isolated vertices form one class of singletons. Each component is
    counted by the placement search into itself; the budget caps the
    vertices of a searched component (the product formula keeps the result
    exact). Results are cached per (graph, budget); budget errors are not.
    """
    comps = g.components()
    classes: list[tuple[Graph, int]] = []
    for comp in comps:
        sub = g.induced_subgraph(comp)
        for i, (rep, mult) in enumerate(classes):
            if isomorphic(rep, sub):
                classes[i] = (rep, mult + 1)
                break
        else:
            classes.append((sub, 1))
    total = 1
    for rep, mult in classes:
        total *= factorial(mult) * _component_aut(rep, budget) ** mult
    return total


def _component_aut(g: Graph, budget: int) -> int:
    if g.n <= 1:
        return 1
    # Closed forms for shapes the search budget should not limit.
    n, m = g.n, g.num_edges
    degs = g.degrees()
    if m == n * (n - 1) // 2:
        return factorial(n)
    if m == n - 1 and max(degs) == n - 1:
        return factorial(n - 1)  # star: leaves permute freely
    if m == n - 1 and sorted(degs) == [1, 1] + [2] * (n - 2):
        return 2  # path: reversal only
    if m == n and all(d == 2 for d in degs):
        return 2 * n  # cycle: rotations and reflections
    if g.n > budget:
        raise BudgetExceededError(
            f"automorphism budget: component with {g.n} vertices > budget {budget}"
        )
    # With equal vertex and edge counts every embedding is an automorphism.
    return sum(1 for _ in _embeddings(g, g))


def isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs: with equal vertex and edge
    counts, an edge-preserving injection a -> b is an isomorphism."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    if a.edges == b.edges:
        return True
    return next(_embeddings(a, b), None) is not None
