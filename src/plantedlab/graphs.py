"""Immutable simple graphs, built-in families, and edge-list text I/O.

Vertices are integers 0..n-1. Edges are stored canonically as pairs (u, v)
with u < v; self-loops and duplicates are rejected at construction, and the
first offending edge in input order names the error. Graphs are hashable
and safe to share across threads.

A graph holds its sorted edge tuple and builds its neighbour sets on the
first read that needs them (`neighbors`, `degree`, `has_edge`,
`components`), so a caller that reads only the edges never pays for them;
`degrees` and `max_degree` read a degree tuple counted off the edges on
their first call and kept. Two threads racing on a first read build equal
sets or tuples, and either one is kept.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    FormatError,
    InvalidSpecError,
    SelfLoopError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]


class Graph:
    """Simple undirected graph on vertices 0..n-1 with a fixed edge set."""

    __slots__ = ("n", "edges", "_adj", "_deg", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise VertexOutOfRangeError(f"vertex count must be >= 0, got {n}")
        canon: list[Edge] = []
        for e in edges:
            u, v = e
            if 0 <= u < v < n:
                canon.append(e if type(e) is tuple else (u, v))
            elif 0 <= v < u < n:
                canon.append((v, u))
            else:
                raise _first_offence(canon, (u, v), n)
        ordered = sorted(canon)
        if any(map(operator.eq, ordered, islice(ordered, 1, None))):
            raise _first_offence(canon, None, n)
        edges = tuple(ordered)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_deg", None)
        object.__setattr__(self, "_hash", hash((n, edges)))

    def _neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Every vertex's neighbour set, built and kept on the first call."""
        sets = self._adj
        if sets is None:
            adj: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            sets = tuple(frozenset(s) for s in adj)
            object.__setattr__(self, "_adj", sets)
        return sets

    def _degree_tuple(self) -> tuple[int, ...]:
        """Every vertex's degree, counted off the edges and kept on the first
        call: ~20x as fast as building the neighbour sets to read their sizes."""
        deg = self._deg
        if deg is None:
            counts = [0] * self.n
            for u, v in self.edges:
                counts[u] += 1
                counts[v] += 1
            deg = tuple(counts)
            object.__setattr__(self, "_deg", deg)
        return deg

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._neighbor_sets()[v]

    def degree(self, v: int) -> int:
        return len(self._neighbor_sets()[v])

    def degrees(self) -> list[int]:
        return list(self._degree_tuple())

    def max_degree(self) -> int:
        return max(self._degree_tuple(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        return v in self._neighbor_sets()[u]

    def isolated_vertices(self) -> list[int]:
        touched = bytearray(self.n)
        for u, v in self.edges:
            touched[u] = touched[v] = 1
        return [v for v in range(self.n) if not touched[v]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- derived graphs ----------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (singletons included)."""
        adj = self._neighbor_sets()
        seen = [False] * self.n
        out: list[list[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def induced_subgraph(self, vertices: Sequence[int]) -> Graph:
        """Relabeled induced subgraph; vertex i of the result is sorted(vertices)[i]."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(vs), edges)



def _first_offence(canon: list[Edge], bad: Edge | None, n: int) -> Exception:
    """The error for the first offending edge in input order: a repeat among
    `canon`, the canonical edges read before `bad`, else `bad` itself, the
    self-loop or out-of-range edge that stopped the pass."""
    seen: set[Edge] = set()
    for e in canon:
        if e in seen:
            return DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
    u, v = bad
    if u == v:
        return SelfLoopError(f"self-loop at vertex {u}")
    return VertexOutOfRangeError(f"edge ({u},{v}) outside [0,{n})")


def is_pattern(g: Graph) -> bool:
    """Pattern graphs (planted structures) must have no isolated vertices,
    so at most 2|e| vertices, which is checked before any per-vertex work."""
    return 0 < g.n <= 2 * g.num_edges and not g.isolated_vertices()


# -- edge-list text format -------------------------------------------------
#
# First line:  n <vertex_count>
# Then one `u v` pair per line, 0-indexed, whitespace separated.
# `#` starts a comment (full line or trailing).

def parse_edge_list(text: str) -> Graph:
    n = None
    pairs: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = re.fullmatch(r"n\s+(\d+)", line)
            if not m:
                raise FormatError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            n = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        pairs.append((u, v))
    if n is None:
        raise FormatError("missing 'n <count>' header line")
    return Graph(n, pairs)


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"n {g.n}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comment))


# -- built-in families -----------------------------------------------------

FAMILY_KINDS = (
    "clique",
    "path",
    "star",
    "complete_bipartite",
    "regular_tree",
    "matching",
    "disjoint_triangles",
    "unbalanced_stars",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its integer size parameters, which are
    stored as a tuple of ints whatever sequence they are given as.

    Parses from strings like ``clique:4``, ``complete_bipartite:2,3``,
    ``unbalanced_stars:16``.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        kind = self.kind
        if kind not in FAMILY_KINDS:
            raise InvalidSpecError(f"unknown family kind {kind!r}; known: {', '.join(FAMILY_KINDS)}")
        arity = 2 if kind in ("complete_bipartite", "regular_tree") else 1
        params = tuple(int(p) for p in self.params)
        if len(params) != arity:
            raise InvalidSpecError(f"{kind} takes {arity} parameter(s), got {params}")
        if any(p < 1 for p in params):
            raise InvalidSpecError(f"{kind} parameters must be >= 1, got {params}")
        object.__setattr__(self, "params", params)

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        text = text.strip()
        if ":" not in text:
            raise InvalidSpecError(f"family spec must look like 'kind:params', got {text!r}")
        kind, _, rest = text.partition(":")
        try:
            params = [int(tok) for tok in rest.split(",") if tok != ""]
        except ValueError:
            raise InvalidSpecError(f"non-integer parameter in {text!r}") from None
        return cls(kind.strip(), params)

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def __repr__(self) -> str:
        return f"FamilySpec({str(self)!r})"


def make_family(spec: FamilySpec | str) -> Graph:
    """Deterministic canonical construction of a built-in family.

    Vertex numbering conventions:
      clique(k): vertices 0..k-1.
      path(k):   k edges on vertices 0..k, edge (i, i+1).
      star(d):   center 0, leaves 1..d.
      complete_bipartite(a, b): left part 0..a-1, right part a..a+b-1.
      regular_tree(D, depth): breadth-first numbering from the root (vertex 0);
        the root has D children, every other internal vertex has D-1 children,
        so all internal vertices have degree D. depth counts edge levels.
      matching(m): edge (2i, 2i+1) for i < m.
      disjoint_triangles(t): triangle on {3i, 3i+1, 3i+2}.
      unbalanced_stars(k): k disjoint stars of degree floor(k^(1/4)) laid out
        first (each as center followed by its leaves), then one star of degree
        floor(k^(3/4)).
    """
    if isinstance(spec, str):
        spec = FamilySpec.parse(spec)
    kind, params = spec.kind, spec.params

    if kind == "clique":
        (k,) = params
        return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])

    if kind == "path":
        (k,) = params
        return Graph(k + 1, [(i, i + 1) for i in range(k)])

    if kind == "star":
        (d,) = params
        return Graph(d + 1, [(0, i) for i in range(1, d + 1)])

    if kind == "complete_bipartite":
        a, b = params
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    if kind == "regular_tree":
        branching, depth = params
        edges: list[Edge] = []
        level = [0]
        next_id = 1
        for lvl in range(depth):
            nxt: list[int] = []
            for v in level:
                fanout = branching if lvl == 0 else branching - 1
                for _ in range(fanout):
                    edges.append((v, next_id))
                    nxt.append(next_id)
                    next_id += 1
            level = nxt
        return Graph(next_id, edges)

    if kind == "matching":
        (m,) = params
        return Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])

    if kind == "disjoint_triangles":
        (t,) = params
        edges = []
        for i in range(t):
            a = 3 * i
            edges.extend([(a, a + 1), (a, a + 2), (a + 1, a + 2)])
        return Graph(3 * t, edges)

    if kind == "unbalanced_stars":
        (k,) = params
        small, big = unbalanced_stars_degrees(k)
        edges = []
        base = 0
        for _ in range(k):
            edges.extend((base, base + j) for j in range(1, small + 1))
            base += small + 1
        edges.extend((base, base + j) for j in range(1, big + 1))
        return Graph(base + big + 1, edges)

    raise InvalidSpecError(f"unhandled family kind {kind!r}")


def unbalanced_stars_degrees(k: int) -> tuple[int, int]:
    """(small star degree, big star degree) = (floor(k^1/4), floor(k^3/4)).

    Two integer square roots give floor(x^1/4) exactly, so huge k stays exact.
    """
    if k < 1:
        raise InvalidSpecError(f"unbalanced_stars needs k >= 1, got {k}")
    return math.isqrt(math.isqrt(k)), math.isqrt(math.isqrt(k**3))


def unbalanced_stars_profile(k: int) -> tuple[int, int, int]:
    """Closed-form (num_edges, max_degree, vertex_cover_number) of unbalanced_stars(k).

    The cover consists of the k + 1 star centers; the maximum degree is the
    big star's. Valid for any k without building the graph.
    """
    small, big = unbalanced_stars_degrees(k)
    num_edges = k * small + big
    max_degree = max(big, small)
    cover = k + 1
    return num_edges, max_degree, cover


def complete_graph(k: int) -> Graph:
    return make_family(FamilySpec("clique", [k]))
