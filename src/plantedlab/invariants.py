"""Exact graph invariants: maximum subgraph density, densest subgraph,
vertex cover number, automorphism count, isomorphism, and the record of
the threshold inputs. One placement search (edge-preserving injections, by
backtracking) serves copy counting and isomorphism; its plan and the twin
classes also drive the scan and the shared-edge count. Automorphisms are
counted by individualisation and colour refinement on the twin quotient.

Everything here is exact. Density values are rationals, counts are
arbitrary-precision integers, and every search charges its work to the
call's meter (`trace`), which raises BudgetExceededError instead of
approximating.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import count
from math import factorial, prod
from typing import Iterator

from .errors import EmptyGraphError
from .graphs import Graph
from .trace import metered, spend


@dataclass(frozen=True)
class GraphStats:
    """The invariants the threshold formulas read: |v|, |e|, d_max and mu,
    with mu exact."""

    num_vertices: int
    num_edges: int
    max_degree: int
    max_subgraph_density: Fraction


@metered
def graph_stats(g: Graph) -> GraphStats:
    if g.n == 0:
        raise EmptyGraphError("stats of the empty graph are undefined")
    return GraphStats(
        num_vertices=g.n,
        num_edges=g.num_edges,
        max_degree=g.max_degree(),
        max_subgraph_density=max_subgraph_density(g),
    )


# ---------------------------------------------------------------------------
# Maximum subgraph density mu(G) = max over nonempty H of |e(H)| / |v(H)|
# ---------------------------------------------------------------------------

@metered
def max_subgraph_density(g: Graph) -> Fraction:
    """Exact mu(G) by Dinkelbach's iteration on Goldberg's max-flow network
    (:func:`_densest_cut`): each flow either certifies its guess or yields a
    denser set. The first guess is the peeling density, which on a random
    host is usually mu, so one flow certifies it."""
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


@metered
def densest_vertex_set(g: Graph) -> list[int]:
    """The tie-broken optimal vertex set behind :func:`densest_subgraph`.

    Read from the max flow at mu (Picard-Queyranne): the min cuts are the
    residual-closed node sets holding the source but not the sink, and the
    vertices on a min cut's source side, if any, form an optimal set. A
    closed set is a union of strongly connected components of the residual
    graph, with every component they reach. So the inclusion-minimal
    optimal sets are the vertices of the components that hold a vertex and
    reach no other component holding one, every other optimal set strictly
    contains one of them, and the tie rule picks among these. (A component
    that reaches the sink reaches the vertices of every optimal set through
    it: at mu their sink arcs are saturated, and each holds at least 2*num,
    which is positive unless there is no edge and so no residual arc. So
    the sink needs no test of its own.) One pass of Tarjan's algorithm
    numbers the components, and one sweep in its order (reverse
    topological) finds what each reaches.
    """
    if g.n == 0:
        raise EmptyGraphError("densest subgraph of the empty graph is undefined")
    _, dinic = _densest_cut(g)  # vertex v is node 1+v; the sink is n+1
    comp, members = dinic.residual_components()
    head, to, cap = dinic.head, dinic.to, dinic.cap
    holds: list[bool] = []  # per component: holds or reaches a vertex
    best: list[int] | None = None
    for c, nodes in enumerate(members):
        core = sorted(u - 1 for u in nodes if 0 < u <= g.n)
        below = any(
            comp[to[eid]] != c and holds[comp[to[eid]]]
            for u in nodes for eid in head[u] if cap[eid] > 0
        )
        holds.append(below or bool(core))
        if core and not below:
            if best is None or (len(core), core) < (len(best), best):
                best = core
    assert best is not None, "some vertex lies in an optimal set"
    return best


def _densest_cut(g: Graph) -> tuple[Fraction, _Dinic]:
    """(mu, the max-flow network at mu), by Dinkelbach's iteration on
    Goldberg's vertex network.

    At a guess num/den the nodes are 0 = source, 1..n the vertices and n+1
    the sink: source -> v m*den, v -> sink m*den + 2*num - d(v)*den, and
    each edge den each way. A cut whose source side holds the vertex set S
    costs n*m*den + 2*(num*|S| - den*e(S)), so the max flow is n*m*den
    exactly when no S has e(S)/|S| > num/den, which certifies the guess.
    Otherwise the source side of the minimal min cut is a denser S, and
    the next guess is e(S)/|S|. Guesses rise strictly through the finitely
    many densities, starting from the peeling density, which is attained
    and on random hosts usually mu itself, so one flow certifies it.

    The flow starts from greedy shares: each edge, in edge order, gives its
    den units to its first endpoint up to num, and the rest to its second.
    An edge's residual toward a vertex is twice the other endpoint's share,
    a sink arc's residual twice what its vertex can still take, and a
    vertex loaded past num takes twice its excess less from the source
    (never below 0: no vertex is loaded past num by more than m*den/2).
    Every maximum flow leaves the same min cuts, so neither the start nor
    the flow chosen moves mu or the set read from the cuts.
    """
    m, n = g.num_edges, g.n
    degree = g.degrees()
    guess = _peeled_density(g)
    while True:
        num, den = guess.numerator, guess.denominator
        dinic = _Dinic(n + 2)
        left = [num] * n  # what each vertex can take before its sink arc is full
        for u, v in g.edges:
            a = min(den, left[u]) if left[u] > 0 else 0
            left[u] -= a
            left[v] -= den - a
            dinic.add(1 + u, 1 + v, 2 * den, 2 * (den - a))
        for v, room in enumerate(left):
            cap = (m - degree[v]) * den + 2 * num
            dinic.add(0, 1 + v, m * den, m * den + 2 * room if room < 0 else m * den)
            dinic.add(1 + v, n + 1, cap, cap - 2 * room if room > 0 else cap)
        short = -2 * sum(room for room in left if room < 0)  # flow the source has yet to send
        spend("max-flow phase", 6 * len(dinic.to))
        if dinic.max_flow(0, n + 1) == short:
            return guess, dinic
        inside = dinic.reachable(0)[1 : n + 1]
        guess = Fraction(sum(inside[u] and inside[v] for u, v in g.edges), sum(inside))


def _peeled_density(g: Graph) -> Fraction:
    """The densest of the vertex sets left while removing a vertex of least
    degree at a time (Charikar 2000): a density some set attains, so at
    most mu. A lazy heap; each removal is charged with the neighbours it
    updates."""
    degree = g.degrees()
    heap = [(d, v) for v, d in enumerate(degree)]
    heapify(heap)
    edges, size = g.num_edges, g.n
    best = (edges, size)
    while edges:
        d, v = heappop(heap)
        if d != degree[v]:
            continue  # stale, or v is gone
        spend("density peel", 5 + 5 * d)
        degree[v] = -1
        for w in g.neighbors(v):
            if degree[w] > 0:
                degree[w] -= 1
                heappush(heap, (degree[w], w))
        edges, size = edges - d, size - 1
        if edges * best[1] > best[0] * size:
            best = (edges, size)
    return Fraction(*best)


class _Dinic:
    """Integer Dinic max-flow; each blocking flow augments along an explicit
    path stack, so path length is not bounded by Python's recursion."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int, flow: int) -> None:
        """An arc u -> v of capacity c that already carries `flow`."""
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c - flow)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(flow)

    def max_flow(self, s: int, t: int) -> int:
        """The flow this adds from s to t, up to a maximum one."""
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while (level := self._bfs(s)[0])[t] >= 0:
            spend("max-flow phase", 6 * len(to))
            it = [0] * self.n
            path: list[int] = []  # the arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[eid] for eid in path)
                    for eid in path:
                        cap[eid] -= pushed
                        cap[eid ^ 1] += pushed
                    flow += pushed
                    k = next(k for k, eid in enumerate(path) if not cap[eid])
                    del path[k:]  # back to the first saturated arc
                    u = to[path[-1]] if path else s
                    continue
                arcs, i, deeper = head[u], it[u], level[u] + 1
                end = len(arcs)
                while i < end and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == deeper):
                    i += 1
                it[u] = i
                if i < end:
                    eid = arcs[i]
                    path.append(eid)
                    u = to[eid]
                elif u == s:
                    break
                else:
                    level[u] = -1  # a dead end for the rest of the phase
                    path.pop()
                    u = to[path[-1]] if path else s
        return flow

    def _bfs(self, *starts: int) -> tuple[list[int], int]:
        """(level, reached): each node's residual distance from `starts`, -1
        where none leads, and the number of nodes reached."""
        level = [-1] * self.n
        for s in starts:
            level[s] = 0
        queue = list(starts)
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level, len(queue)

    def reachable(self, *starts: int) -> list[bool]:
        """Residual reachability from `starts` after max_flow; from the
        source alone, the source side of the minimal min cut."""
        level, reached = self._bfs(*starts)
        spend("residual search", 5 * reached)
        return [d >= 0 for d in level]

    def residual_components(self) -> tuple[list[int], list[list[int]]]:
        """(comp, members): the strongly connected components of the
        residual graph after max_flow, by Tarjan's algorithm on an explicit
        stack. comp[u] numbers u's component and members[c] lists its
        nodes. Components are numbered as they close, so every residual arc
        leads to a component numbered no higher than its own."""
        spend("residual components", 5 * (self.n + len(self.to)))
        head, to, cap = self.head, self.to, self.cap
        index, low, comp = [-1] * self.n, [0] * self.n, [-1] * self.n
        stack: list[int] = []
        members: list[list[int]] = []
        order = count()
        for start in range(self.n):
            if index[start] >= 0:
                continue
            index[start] = low[start] = next(order)
            path = [(start, iter(head[start]))]
            stack.append(start)
            while path:
                u, arcs = path[-1]
                for eid in arcs:
                    v = to[eid]
                    if cap[eid] <= 0:
                        continue
                    if index[v] < 0:
                        index[v] = low[v] = next(order)
                        path.append((v, iter(head[v])))
                        stack.append(v)
                        break
                    if comp[v] < 0 and index[v] < low[u]:
                        low[u] = index[v]  # v is still on the stack
                else:
                    path.pop()
                    if path and low[u] < low[path[-1][0]]:
                        low[path[-1][0]] = low[u]
                    if low[u] == index[u]:
                        nodes = []
                        while not nodes or nodes[-1] != u:
                            nodes.append(stack.pop())
                            comp[nodes[-1]] = len(members)
                        members.append(nodes)
        return comp, members


# ---------------------------------------------------------------------------
# Vertex cover number tau(G)
# ---------------------------------------------------------------------------

@metered
def vertex_cover_number(g: Graph) -> int:
    """Exact minimum vertex cover size: the sum over connected components
    of a branch and bound.

    The best cover so far starts as the greedy one. A node of the search
    removes the vertices its branch decided, resolves pendant vertices by
    taking their neighbours (always safe), stops when a greedy matching
    shows it cannot beat the best cover so far, and else branches on a
    maximum-degree vertex v: either v joins the cover or all its neighbours do.

    Each node is charged one unit, 20 per vertex it scans (a vertex takes
    as long as ~20 entries) and one per adjacency entry it copies.
    """
    total = 0
    for comp in g.components():
        root = {v: set(g.neighbors(v)) for v in comp if g.degree(v)}
        best = _vc_greedy(root)
        # a node: (parent's adjacency, vertices to remove, cover size so far)
        stack = [(root, frozenset(), 0)]
        while stack:
            parent, removed, taken = stack.pop()
            if taken >= best:
                continue
            adj = {
                u: rest
                for u, ns in parent.items()
                if u not in removed and (rest := ns - removed)
            }
            spend("vertex cover search", 1 + 20 * len(parent) + sum(map(len, adj.values())))
            taken += _vc_take_pendants(adj)
            if not adj:
                best = min(best, taken)
            elif taken + _vc_matching_lb(adj) < best:
                v = max(adj, key=lambda u: len(adj[u]))
                # popped first: v in the cover; then: its neighbours instead
                stack.append((adj, adj[v] | {v}, taken + len(adj[v])))
                stack.append((adj, {v}, taken + 1))
        total += best
    return total


def _vc_greedy(adj: dict[int, set[int]]) -> int:
    """Size of the cover that keeps taking a maximum-degree vertex; a lazy
    heap makes it O(|E| log |V|), so it is not metered."""
    degree = {v: len(ns) for v, ns in adj.items()}
    heap = [(-d, v) for v, d in degree.items()]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if -d == degree[v] > 0:  # current, and v still has an edge
            degree[v] = -1  # taken
            for w in adj[v]:
                if degree[w] > 0:
                    degree[w] -= 1
                    heappush(heap, (-degree[w], w))
    return sum(d < 0 for d in degree.values())


def _vc_take_pendants(adj: dict[int, set[int]]) -> int:
    """Take the neighbour of every degree-1 vertex into the cover, in place,
    until none is left; returns the number taken."""
    pendants = [v for v, ns in adj.items() if len(ns) == 1]
    taken = 0
    while pendants:
        ns = adj.get(pendants.pop())
        if ns is None or len(ns) != 1:
            continue
        (w,) = ns
        taken += 1
        for x in adj.pop(w):
            adj[x].discard(w)
            if not adj[x]:
                del adj[x]
            elif len(adj[x]) == 1:
                pendants.append(x)
    return taken


def _vc_matching_lb(adj: dict[int, set[int]]) -> int:
    used: set[int] = set()
    for v, ns in adj.items():
        if v not in used:
            for w in ns:
                if w not in used:
                    used.update((v, w))
                    break
    return len(used) // 2


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


@lru_cache(maxsize=128)
def _placement_plan(
    pattern: Graph,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(order, back, twin): the vertices in `_embedding_order`; for each
    position, the positions of its neighbours placed before it; and the
    position of the previous member of its twin class, or -1. Cached, so
    the scan, the placement search and the shared-edge count share one."""
    order = _embedding_order(pattern)
    position = {v: i for i, v in enumerate(order)}
    back = tuple(
        tuple(position[w] for w in pattern.neighbors(v) if position[w] < i)
        for i, v in enumerate(order)
    )
    twin = [-1] * len(order)
    for members in _twin_classes(pattern):
        placed = sorted(position[v] for v in members)
        for a, b in zip(placed, placed[1:]):
            twin[b] = a
    return tuple(order), back, tuple(twin)


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


def _embeddings(pattern: Graph, host: Graph) -> Iterator[list[int]]:
    """Every edge-preserving injection of `pattern` into `host`.

    Backtracks along the placement plan with an explicit stack: a vertex's
    candidates are the common host neighbours of its placed neighbours, of
    at least its degree. Yields the host image of each plan position, in one list that
    is reused between embeddings, so a caller may stop at the first. Each
    attempted partial assignment costs 10 units, charged by the batch of 64
    and when the search ends.
    """
    order, back, _ = _placement_plan(pattern)
    k = len(order)
    degs = [pattern.degree(v) for v in order]
    host_degree = host.degrees()
    host_adj = [host.neighbors(u) for u in range(host.n)]
    images = [-1] * k
    used = [False] * host.n
    attempts = 0  # not yet charged
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
        if attempts == 64:
            spend("embedding search", 10 * attempts)
            attempts = 0
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
    spend("embedding search", 10 * attempts)


# ---------------------------------------------------------------------------
# Automorphism count |Aut(G)|
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
@metered
def automorphism_count(g: Graph) -> int:
    """|Aut(G)| as a product over connected components.

    For components grouped by :func:`_isomorphism_classes` into classes C_i
    with multiplicities m_i, |Aut(G)| = prod_i m_i! * |Aut(C_i)|^{m_i}, each
    |Aut(C_i)| by :func:`_connected_aut`; isolated vertices form one class
    of singletons. Results are cached per graph; budget errors are not.
    """
    components = ((g.induced_subgraph(comp), 1) for comp in g.components())
    classes = _isomorphism_classes(components, isomorphic)
    return prod(factorial(mult) * _connected_aut(rep) ** mult for rep, mult in classes)


def _isomorphism_classes(weighted, same) -> list[list]:
    """[representative, weight] for each isomorphism class of the (graph,
    weight) pairs, in first-seen order, the weight summed over its members.

    A graph joins the first class of its vertex count, edge count and sorted
    degrees that `same` matches, else opens one. The merge must be complete,
    so `same` decides isomorphism exactly: a class split into weights w1 and
    w2 would turn |Aut|'s (w1 + w2)! into w1! w2!, and the subset sum's
    (w1 + w2)^2 into w1^2 + w2^2.
    """
    classes, buckets = [], {}
    for graph, weight in weighted:
        bucket = buckets.setdefault((graph.n, graph.num_edges, tuple(sorted(graph.degrees()))), [])
        for cls in bucket:
            if same(cls[0], graph):
                cls[1] += weight
                break
        else:
            bucket.append([graph, weight])
            classes.append(bucket[-1])
    return classes


def _connected_aut(g: Graph) -> int:
    """|Aut| of a component: prod |class|! over its twin classes, times the
    automorphisms of the twin quotient that keep each class's (size,
    clique) colour. Automorphisms map twin classes onto twin classes, the
    permutations inside the classes are the kernel, and every coloured
    automorphism of the quotient lifts."""
    classes = _twin_classes(g)
    of = [0] * g.n
    for i, members in enumerate(classes):
        for v in members:
            of[v] = i
    adj = [
        frozenset(of[w] for w in g.neighbors(members[0])) - {i}
        for i, members in enumerate(classes)
    ]
    kinds = [(len(c), len(c) > 1 and c[1] in g.neighbors(c[0])) for c in classes]
    names = {kind: colour for colour, kind in enumerate(sorted(set(kinds)))}
    twins = prod(factorial(len(c)) for c in classes)
    return twins * _Refinement(adj).count([names[kind] for kind in kinds])


class _Cells:
    """An ordered partition of the vertices: each cell is a run of `order`,
    and a vertex's colour is where its cell starts. `steps` hashes the
    splits that refined it from its parent colouring."""

    __slots__ = ("order", "pos", "start", "size", "steps")

    def __init__(
        self, order: list[int], pos: list[int], start: list[int], size: list[int]
    ):
        self.order, self.pos, self.start, self.size = order, pos, start, size
        self.steps: list[int] = []

    def first_cell(self) -> list[int]:
        """The vertices of the lowest colour shared by two or more, or []."""
        c = min((c for c, k in Counter(self.start).items() if k > 1), default=None)
        return [] if c is None else self.order[c : c + self.size[c]]


class _Refinement:
    """Colour-preserving automorphisms of one graph by individualisation and
    refinement (McKay and Piperno, "Practical graph isomorphism II", 2014).

    Refinement is 1-WL by cell splitting, with Hopcroft's rule of queueing
    every fragment of a split cell but the largest (Berkholz, Bonsma and
    Grohe, 2017). Each splitter vertex and each edge it reads costs 3
    units, and so does each vertex of a map checked as an automorphism and
    each edge the check reads until the map fails, each vertex of a
    partition copied to individualise a vertex, and each vertex of a found
    map merged into the orbits.
    """

    def __init__(self, adj: list[frozenset[int]]):
        self.adj = adj

    def count(self, colours: list[int]) -> int:
        """Orbit-stabilizer along a chain of individualised vertices: the
        automorphisms number |orbit(v)| times those fixing v, for v in the
        first non-singleton cell, and so on down the chain. Levels are
        counted from the bottom, and a union-find holds the orbits of the
        automorphisms found so far; those found below fix v, so only a
        vertex u of v's cell that they do not join to v needs a search
        (:meth:`_joins`)."""
        n = len(colours)
        order = sorted(range(n), key=colours.__getitem__)
        pos, start, size = [0] * n, [0] * n, [0] * n
        for i, v in enumerate(order):
            pos[v] = i
            same = i and colours[order[i - 1]] == colours[v]
            start[v] = start[order[i - 1]] if same else i
            size[start[v]] += 1
        chain = [_Cells(order, pos, start, size)]
        self._split(chain[0], sorted(set(start)), None)
        while cell := chain[-1].first_cell():
            chain.append(self._individualise(chain[-1], cell[0], None))
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        total = 1
        for depth in reversed(range(len(chain) - 1)):
            cell = chain[depth].first_cell()
            for u in cell[1:]:
                if find(u) == find(cell[0]):
                    continue
                image = self._joins(chain[depth], chain[depth + 1 :], u)
                if image is not None:
                    spend("automorphism search", 3 * n)
                    for v, w in enumerate(image):
                        parent[find(v)] = find(w)
            root = find(cell[0])
            total *= sum(find(u) == root for u in cell)
        return total

    def _individualise(
        self, cells: _Cells, v: int, trace: list[int] | None
    ) -> _Cells | None:
        """`cells` with v split off as the last cell of its old run, then
        refined (see :meth:`_split`)."""
        spend("automorphism search", 3 * len(cells.order))
        out = _Cells(cells.order[:], cells.pos[:], cells.start[:], cells.size[:])
        c = out.start[v]
        last = c + out.size[c] - 1
        w = out.order[last]
        out.order[last], out.order[out.pos[v]] = v, w
        out.pos[w], out.pos[v] = out.pos[v], last
        out.size[c] -= 1
        out.size[last], out.start[v] = 1, last
        return self._split(out, [last], trace)

    def _split(
        self, cells: _Cells, queue: list[int], trace: list[int] | None
    ) -> _Cells | None:
        """Refine `cells` in place to the coarsest equitable partition,
        starting from the splitter cells in `queue`: every cell, or every
        piece but one of a cell just split in an equitable partition. A
        cell splits by neighbour count in the splitter into fragments in
        count order, so colours are named canonically. Given another
        refinement's steps as `trace`, returns None at the first split that
        differs, since no colour-preserving isomorphism joins the two then.
        (Equal hashes of unequal splits only pass a mismatch on to the final
        check of :meth:`_automorphism`.)"""
        order, pos, start, size, steps = (
            cells.order, cells.pos, cells.start, cells.size, cells.steps
        )
        queue = deque(queue)
        queued = set(queue)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            counts: Counter[int] = Counter()
            for w in order[s : s + size[s]]:
                counts.update(self.adj[w])
            spend("automorphism search", 3 * (size[s] + sum(counts.values())))
            touched: dict[int, list[int]] = {}
            for x in counts:
                touched.setdefault(start[x], []).append(x)
            for c in sorted(touched):
                members = sorted(touched[c], key=counts.__getitem__)
                end = c + size[c]
                if len(members) == size[c] and counts[members[0]] == counts[members[-1]]:
                    continue
                first = end - len(members)
                for j, x in enumerate(members, first):
                    y = order[j]
                    order[pos[x]], order[j] = y, x
                    pos[y], pos[x] = pos[x], j
                cuts = [c] if first > c else []
                cuts += [j for j in range(first, end) if j == first
                         or counts[order[j]] != counts[order[j - 1]]]
                bounds = list(zip(cuts, cuts[1:] + [end]))
                for a, b in bounds:
                    size[a] = b - a
                    if a != c:
                        for x in order[a:b]:
                            start[x] = a
                split = tuple((b - a, counts[order[a]]) for a, b in bounds)
                steps.append(hash((s, c, split)))
                if trace is not None and (
                    len(steps) > len(trace) or trace[len(steps) - 1] != steps[-1]
                ):
                    return None
                largest = c if c in queued else max(bounds, key=lambda r: r[1] - r[0])[0]
                for a, _ in bounds:
                    if a != largest and a not in queued:
                        queue.append(a)
                        queued.add(a)
        if trace is not None and len(steps) != len(trace):
            return None
        return cells

    def _joins(self, cells: _Cells, chain: list[_Cells], u: int) -> list[int] | None:
        """An automorphism keeping the colouring of `cells`, as a vertex map,
        that carries the vertex chain[0] individualises onto u, or None.
        `chain` continues by individualising the first vertex of the first
        non-singleton cell. Backtracks over explicit frames, each holding a
        right-side partition and the vertices of that cell's colour in it
        left to try. A candidate whose refinement matches the chain's is
        tried as the position-by-position map (:meth:`_automorphism`)
        before the search descends below it."""
        frames = [(cells, [u])]
        while frames:
            theirs, candidates = frames[-1]
            if not candidates:
                frames.pop()
                continue
            ours = chain[len(frames) - 1]
            right = self._individualise(theirs, candidates.pop(), ours.steps)
            if right is None:
                continue
            image = self._automorphism(cells.start, ours, right)
            if image is not None:
                return image
            if cell := ours.first_cell():
                c = ours.start[cell[0]]
                frames.append((right, right.order[c : c + right.size[c]][::-1]))
        return None

    def _automorphism(
        self, base: list[int], left: _Cells, right: _Cells
    ) -> list[int] | None:
        """The map carrying each vertex to the vertex at its position from
        `left` in `right`, if it keeps `base` and carries the edges onto the
        edges."""
        image, read = [right.order[p] for p in left.pos], len(self.adj)
        for v, nbrs in enumerate(self.adj):
            read += len(nbrs)
            if base[image[v]] != base[v] or frozenset(image[w] for w in nbrs) != self.adj[image[v]]:
                image = None
                break
        spend("automorphism search", 3 * read)
        return image


@metered
def isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for small graphs: with equal vertex and edge
    counts, an edge-preserving injection a -> b is an isomorphism. The
    search for one is charged to the call's meter."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    if a.edges == b.edges:
        return True
    return next(_embeddings(a, b), None) is not None
