"""Exact graph invariants against exhaustive brute force."""

import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab import (
    BudgetExceededError,
    EmptyGraphError,
    Graph,
    GraphStats,
    automorphism_count,
    complete_graph,
    densest_subgraph,
    densest_vertex_set,
    graph_stats,
    isomorphic,
    make_family,
    max_subgraph_density,
    vertex_cover_number,
    write_edge_list,
)

from plantedlab import invariants, trace
from plantedlab.cli import run_command
from plantedlab.invariants import _peeled_density

from oracles import (
    brute_automorphisms,
    brute_densest_vertex_set,
    brute_isomorphic,
    brute_max_density,
    brute_vertex_cover,
    certified_max_density,
    embedding_automorphisms,
    hub_joined,
    moebius_ladder,
    per_vertex_densest_vertex_set,
    prism,
    random_connected_graph,
    random_cubic_graph,
    random_graph,
    swapped_relabelling,
)


HYPERCUBE_3 = Graph(8, [(v, v | bit) for v in range(8) for bit in (1, 2, 4) if not v & bit])
PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)
# vertex 16 joined to two cubic graphs, on 0-7 and on 8-15
HUB_17 = Graph(17, [
    tuple(map(int, e.split("-"))) for e in (
        "0-1 0-4 0-6 1-2 1-5 2-3 2-7 3-4 3-5 4-7 5-6 6-7 "
        "8-10 8-14 8-15 9-10 9-11 9-12 10-15 11-12 11-14 12-13 13-14 13-15"
    ).split()
] + [(v, 16) for v in range(16)])
# 2-regular on 6 vertices, so all three share one degree signature
C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
C6_RELABELLED = Graph(6, [(0, 2), (2, 4), (1, 4), (1, 3), (3, 5), (0, 5)])
TWO_TRIANGLES = make_family("disjoint_triangles:2")


def spider(m: int) -> Graph:
    """A centre joined to m paths of length 2; for m >= 2 its automorphisms
    permute the paths."""
    return Graph(2 * m + 1, [e for i in range(1, 2 * m, 2) for e in ((0, i), (i, i + 1))])


def dumbbell(length: int) -> Graph:
    """Two triangles joined by a path of `length` edges, on length + 5
    vertices. The whole graph is densest, at (length + 6) / (length + 5),
    and its max flow augments along the joining path."""
    right = length + 2
    return Graph(length + 5, [(0, 1), (0, 2), (1, 2)]
                 + [(v, v + 1) for v in range(2, right)]
                 + [(right, right + 1), (right, right + 2), (right + 1, right + 2)])


def gadget_host(rng) -> Graph:
    """A sparse seeded G(n, p) on 60-120 vertices with one to three pendant
    paths and dumbbells, each dumbbell hung by an edge or apart: mu sits
    near 1, where max flows need long augmenting paths."""
    n = int(rng.integers(60, 121))
    edges = list(random_graph(rng, n, float(rng.uniform(0.5, 3.0)) / n).edges)
    size = n
    for _ in range(int(rng.integers(1, 4))):
        length, at = int(rng.integers(1, 60)), int(rng.integers(0, size))
        if rng.random() < 0.5:
            edges += [(at, size)] + [(size + i, size + i + 1) for i in range(length - 1)]
            size += length
        else:
            gadget = dumbbell(length)
            edges += [(u + size, v + size) for u, v in gadget.edges]
            if rng.random() < 0.5:
                edges.append((at, size))
            size += gadget.n
    return Graph(size, edges)


class TestMaxSubgraphDensity:
    def test_known_values(self):
        assert max_subgraph_density(complete_graph(4)) == Fraction(3, 2)
        assert max_subgraph_density(make_family("star:5")) == Fraction(5, 6)
        assert max_subgraph_density(make_family("path:3")) == Fraction(3, 4)
        # K4 plus a pendant path: the clique dominates
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        assert max_subgraph_density(g) == Fraction(3, 2)

    def test_empty_graph(self):
        assert max_subgraph_density(Graph(3, [])) == Fraction(0)

    @pytest.mark.parametrize("fn, message", [
        (graph_stats, "stats of the empty graph are undefined"),
        (max_subgraph_density, "density of the empty graph is undefined"),
        (densest_vertex_set, "densest subgraph of the empty graph is undefined"),
    ])
    def test_no_vertices(self, fn, message):
        with pytest.raises(EmptyGraphError) as err:
            fn(Graph(0, []))
        assert str(err.value) == message

    def test_matches_brute_force_small(self):
        # graphs with up to 10 vertices against the subset oracle
        rng = np.random.default_rng(100)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.8)))
            assert max_subgraph_density(g) == brute_max_density(g)

    def test_matches_brute_force_flow_path(self):
        # 16 vertices: the largest hosts the subset oracle checks here
        rng = np.random.default_rng(101)
        for _ in range(12):
            g = random_graph(rng, 16, float(rng.uniform(0.15, 0.5)))
            assert max_subgraph_density(g) == brute_max_density(g)

    def test_densest_vertex_set_tie_break_small(self):
        rng = np.random.default_rng(102)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.7)))
            assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    def test_densest_vertex_set_tie_break_flow_path(self):
        rng = np.random.default_rng(103)
        for _ in range(8):
            g = random_graph(rng, 15, float(rng.uniform(0.2, 0.45)))
            assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        # no edge crosses a random split, then the labels are shuffled, so
        # isolated vertices and disconnected graphs are common
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        split = int(rng.integers(1, n + 1))
        perm = rng.permutation(n)
        g = random_graph(rng, n, float(rng.random()))
        g = Graph(n, [
            (int(perm[u]), int(perm[v])) for u, v in g.edges if (u < split) == (v < split)
        ])
        assert _peeled_density(g) <= max_subgraph_density(g) == brute_max_density(g)
        assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    @pytest.mark.parametrize("length", [6, 34])
    def test_clique_with_pendant_path(self, length):
        # K6 on 0..5 and a path 5-6-...: the whole graph is sparser than the
        # clique, which the iteration must find
        g = Graph(
            6 + length,
            [(i, j) for i in range(6) for j in range(i + 1, 6)]
            + [(v, v + 1) for v in range(5, 5 + length)],
        )
        assert Fraction(g.num_edges, g.n) < Fraction(5, 2)
        assert max_subgraph_density(g) == Fraction(5, 2)
        assert densest_vertex_set(g) == [0, 1, 2, 3, 4, 5]
        if g.n <= 12:
            assert max_subgraph_density(g) == brute_max_density(g)
            assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    def test_iteration_moves_past_the_peeling_density(self):
        # peeling a least-degree vertex at a time first removes 0, a leaf
        # of the densest set {0, 1, 3}, so the first flow finds that set
        g = Graph(5, [(0, 3), (1, 3), (2, 4)])
        assert _peeled_density(g) == Fraction(3, 5)
        assert max_subgraph_density(g) == Fraction(2, 3) == brute_max_density(g)
        assert densest_vertex_set(g) == [0, 1, 3] == brute_densest_vertex_set(g)

    @pytest.mark.parametrize("length", [800, 1500])
    def test_dumbbell_needs_no_recursion(self, length):
        # the augmenting path runs along the whole joining path; at 1500
        # edges it is deeper than Python's recursion limit
        g = dumbbell(length)
        assert max_subgraph_density(g) == Fraction(length + 6, length + 5)
        assert densest_vertex_set(g) == list(range(length + 5))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gadget_hosts_match_per_vertex_searches(self, seed):
        g = gadget_host(np.random.default_rng(seed))
        vs = densest_vertex_set(g)
        assert vs == per_vertex_densest_vertex_set(g)
        assert max_subgraph_density(g) == Fraction(g.induced_subgraph(vs).num_edges, len(vs))

    def test_gadget_hosts_certified_by_scipy(self):
        for seed in range(20):
            certified_max_density(gadget_host(np.random.default_rng(seed)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n,p", [(200, 0.1), (300, 0.05)])
    def test_benchmark_hosts_certified_by_scipy(self, seed, n, p):
        # the exact-oracles hosts, drawn as the benchmark draws them: one
        # uniform per pair, row-major, from the generator keyed [seed, n]
        rng = np.random.default_rng([seed, n])
        rows, cols = np.triu_indices(n, 1)
        keep = rng.random(rows.size) < p
        certified_max_density(Graph(n, list(zip(rows[keep].tolist(), cols[keep].tolist()))))

    @pytest.mark.parametrize("g,budget", [
        pytest.param(make_family("path:3000"), 700_000, id="path:3000"),
        pytest.param(dumbbell(5000), 2_000_000, id="dumbbell:5000"),
    ])
    def test_greedy_start_keeps_long_paths_cheap(self, monkeypatch, g, budget):
        # about 5x what mu spends on these hosts (138k and 410k units):
        # from each edge's greedy share one augmenting phase is left, while
        # from an even split the flow moves a unit per path vertex along the
        # path, quadratic work past the default 50M-unit budget on both
        monkeypatch.setattr(trace, "WORK_BUDGET", budget)
        assert max_subgraph_density(g) == Fraction(g.num_edges, g.n)

    @pytest.mark.parametrize("tree_size,k", [(6, 4), (7, 3), (300, 5), (300, 3)])
    def test_tree_with_clique(self, tree_size, k):
        # a random tree with K_k hung from one of its vertices by an edge,
        # labels shuffled; with K3 the whole graph ties the clique at
        # density 1, so the tie rule must still pick the clique
        rng = np.random.default_rng(104 + tree_size + k)
        n = tree_size + k
        clique = range(tree_size, n)
        edges = [(int(rng.integers(0, v)), v) for v in range(1, tree_size)]
        edges += [(u, v) for u in clique for v in clique if u < v]
        edges.append((int(rng.integers(0, tree_size)), tree_size))
        perm = rng.permutation(n)
        g = Graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])
        assert max_subgraph_density(g) == Fraction(k - 1, 2)
        assert densest_vertex_set(g) == sorted(int(perm[v]) for v in clique)
        if n <= 10:
            assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    @pytest.mark.parametrize("spec", ["disjoint_triangles:3", "matching:4"])
    def test_ties_across_identical_components(self, spec):
        g = make_family(spec)
        assert max_subgraph_density(g) == brute_max_density(g)
        assert densest_vertex_set(g) == brute_densest_vertex_set(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_densest_vertex_set_matches_per_vertex_searches(self, seed):
        # the one-pass reading of the residual graph against one residual
        # search per vertex, on small graphs, ties and seeded G(n, p) hosts
        rng = np.random.default_rng(105 + seed)
        graphs = [
            random_graph(rng, int(rng.integers(1, 25)), float(rng.uniform(0.05, 0.8)))
            for _ in range(40)
        ]
        graphs += [make_family(spec) for spec in ("disjoint_triangles:3", "matching:4")]
        graphs += [random_graph(rng, 200, 0.1), random_graph(rng, 300, 0.05)]
        for g in graphs:
            assert densest_vertex_set(g) == per_vertex_densest_vertex_set(g)

    def test_densest_subgraph_is_induced_restriction(self):
        g = make_family("unbalanced_stars:16")
        sub = densest_subgraph(g)
        assert max_subgraph_density(g) == Fraction(sub.num_edges, sub.n)


class TestVertexCover:
    def test_known_values(self):
        assert vertex_cover_number(Graph(1, [])) == 0
        assert vertex_cover_number(complete_graph(5)) == 4
        assert vertex_cover_number(make_family("star:9")) == 1
        assert vertex_cover_number(make_family("matching:6")) == 6
        assert vertex_cover_number(make_family("path:4")) == 2
        # one small search per component, not one over 2^30 branches
        assert vertex_cover_number(make_family("disjoint_triangles:30")) == 60

    def test_matches_brute_force(self):
        rng = np.random.default_rng(200)
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.8)))
            assert vertex_cover_number(g) == brute_vertex_cover(g)

    def test_budget_enforced(self, monkeypatch):
        assert vertex_cover_number(complete_graph(50)) == 49
        monkeypatch.setattr(trace, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetExceededError) as err:
            vertex_cover_number(complete_graph(50))
        spent = re.search(r"(\d+) work units > budget 1000", str(err.value)).group(1)
        assert int(spent) > 1000

    def test_dense_patterns_within_the_default_budget(self):
        # the first dive into a clique is never pruned, so it copies ~m^3/3 entries
        assert vertex_cover_number(complete_graph(200)) == 199
        # the greedy start matches the matching bound, so the root is pruned
        assert vertex_cover_number(make_family("complete_bipartite:300,300")) == 300

    def test_star_forest_within_large_budget(self):
        g = make_family("unbalanced_stars:81")
        assert vertex_cover_number(g) == 82


class TestAutomorphisms:
    def test_closed_forms(self):
        assert automorphism_count(complete_graph(5)) == factorial(5)
        assert automorphism_count(make_family("star:6")) == factorial(6)
        assert automorphism_count(make_family("path:3")) == 2
        cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert automorphism_count(cycle) == 10
        # one twin class each, so size costs the search nothing
        assert automorphism_count(make_family("star:50")) == factorial(50)
        assert automorphism_count(complete_graph(30)) == factorial(30)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(1, 8)), float(rng.uniform(0.15, 0.85)))
            assert automorphism_count(g) == brute_automorphisms(g)

    def test_disconnected_product_formula(self):
        # m isomorphic components: m! * aut(component)^m
        assert automorphism_count(make_family("matching:4")) == factorial(4) * 2**4
        assert (
            automorphism_count(make_family("disjoint_triangles:3"))
            == factorial(3) * 6**3
        )
        two_kinds = Graph(5, [(0, 1), (2, 3), (3, 4)])  # edge + path
        assert automorphism_count(two_kinds) == 2 * 2
        # C6, a relabelled C6 and two triangles: one degree signature, two classes
        one_signature = Graph(18, list(C6.edges) + [(6 + u, 6 + v) for u, v in C6_RELABELLED.edges]
                              + [(12 + u, 12 + v) for u, v in TWO_TRIANGLES.edges])
        assert automorphism_count(one_signature) == factorial(2) * 12**2 * factorial(2) * 6**2

    def test_matches_brute_force_on_connected_8_vertex_graphs(self):
        graphs = [HYPERCUBE_3, make_family("complete_bipartite:3,5")]
        rng = np.random.default_rng(302)
        while len(graphs) < 6:
            graphs.append(random_connected_graph(rng, 8, float(rng.uniform(0.15, 0.6))))
        for g in graphs:
            assert g.is_connected()
            assert automorphism_count(g) == brute_automorphisms(g)

    @pytest.mark.parametrize(
        "g, want",
        [
            (make_family("regular_tree:3,3"), 3072),
            (make_family("regular_tree:3,4"), 12_582_912),
            (make_family("complete_bipartite:6,6"), 2 * factorial(6) ** 2),
            (HYPERCUBE_3, 48),
            (PETERSEN, 120),
            (Graph(60, [(i, (i + 1) % 60) for i in range(60)]), 120),
        ],
        ids=["regular_tree:3,3", "regular_tree:3,4", "complete_bipartite:6,6",
             "Q3", "Petersen", "C60"],
    )
    def test_exact_values_on_named_graphs(self, g, want):
        assert automorphism_count(g) == want
        perm = np.random.default_rng(304).permutation(g.n)
        relabelled = Graph(g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges])
        assert relabelled != g
        assert automorphism_count(relabelled) == want

    def test_large_trees_within_the_default_budget(self):
        # positional matching of the two refinements finds each generator
        assert automorphism_count(make_family("regular_tree:3,8")) == 6 * 2**381
        for m in (2, 3, 300):
            assert automorphism_count(spider(m)) == factorial(m)

    def test_matches_embedding_search_on_connected_9_to_12_vertex_graphs(self):
        # past brute force: every automorphism is an embedding into itself
        rng = np.random.default_rng(305)
        for _ in range(12):
            n = int(rng.integers(9, 13))
            g = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            assert automorphism_count(g) == embedding_automorphisms(g)

    def test_hub_joined_cubic_graphs(self, capsys, tmp_path):
        # refinement splits no cubic graph, so the orbit search backtracks
        assert automorphism_count(HUB_17) == 64 == embedding_automorphisms(HUB_17)
        path = tmp_path / "hub17.txt"
        write_edge_list(HUB_17, str(path))
        assert run_command(["stats", "--graph", str(path)]) == 0
        assert capsys.readouterr().out == "|v|=17 |e|=40 d_max=16 mu=40/17 tau=11 aut=64\n"

    @pytest.mark.parametrize("seed", [3, 11, 35, 47, 318, 559, 659, 1091, 1189, 1618])
    def test_hub_joined_relabelled_cubic_graphs_match_embedding_count(self, seed):
        rng = np.random.default_rng(seed)
        base = random_cubic_graph(rng, int(rng.choice([8, 10])))
        parts = [swapped_relabelling(rng, base, 2) for _ in range(int(rng.integers(2, 6)))]
        g = hub_joined(parts)
        assert automorphism_count(g) == embedding_automorphisms(g)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), parts=st.integers(2, 3))
    def test_relabelled_unions_match_brute_force(self, seed, parts):
        # two or three components on 2 to 4 vertices (3 or 4 for the first),
        # 8 in all so brute force stays quick; half the time a later one is
        # the first relabelled, so grouping the two takes `isomorphic`'s search
        rng = np.random.default_rng(seed)
        first = random_connected_graph(rng, int(rng.integers(3, 5)), 0.5)
        comps, room = [first], 8 - first.n
        for i in range(1, parts):
            fits = room - 2 * (parts - 1 - i)  # leaves 2 vertices per later part
            if first.n <= fits and rng.random() < 0.5:
                for _ in range(5):  # a symmetric first may never change
                    perm = rng.permutation(first.n)
                    comp = Graph(first.n, [(int(perm[u]), int(perm[v])) for u, v in first.edges])
                    if comp.edges != first.edges:
                        break
            else:
                comp = random_connected_graph(rng, int(rng.integers(2, min(4, fits) + 1)), 0.5)
            comps.append(comp)
            room -= comp.n
        edges, offset = [], 0
        for comp in comps:
            edges += [(offset + int(u), offset + int(v)) for u, v in comp.edges]
            offset += comp.n
        g = Graph(offset, edges)
        assert automorphism_count(g) == brute_automorphisms(g)

    def test_budget_enforced_per_component(self, monkeypatch):
        rng = np.random.default_rng(301)
        g = random_graph(rng, 12, 0.5)
        automorphism_count.cache_clear()
        monkeypatch.setattr(trace, "WORK_BUDGET", 10)
        with pytest.raises(BudgetExceededError) as err:
            automorphism_count(g)
        spent, limit = re.search(
            r"automorphism search: (\d+) work units > budget (\d+)", str(err.value)
        ).groups()
        assert int(spent) > int(limit) == 10
        monkeypatch.undo()
        # but many small components are fine regardless of total size
        assert automorphism_count(make_family("matching:40")) == factorial(40) * 2**40


class TestIsomorphismClasses:
    def test_weights_add_within_each_class(self):
        asked = []

        def same(a, b):
            asked.append((a, b))
            return isomorphic(a, b)

        path = make_family("path:3")
        weighted = [(C6, 2), (TWO_TRIANGLES, 3), (path, 1), (C6_RELABELLED, 5), (TWO_TRIANGLES, 7)]
        classes = invariants._isomorphism_classes(weighted, same)
        assert classes == [[C6, 7], [TWO_TRIANGLES, 10], [path, 1]]
        # the path never meets a 2-regular graph
        assert all(path not in pair for pair in asked)


class TestIsomorphic:
    def test_positive_and_negative(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(3, 2), (2, 0), (0, 1)])  # relabeled path
        assert isomorphic(a, b)
        assert not isomorphic(a, make_family("star:3"))
        assert not isomorphic(a, Graph(5, [(0, 1), (1, 2), (2, 3)]))

    def test_degree_sequence_twins_distinguished(self):
        # same degree multiset, different graphs: C6 vs two triangles
        assert not isomorphic(C6, TWO_TRIANGLES)

    def test_matches_brute_force_on_same_degree_sequences(self):
        # b is a relabelled double-edge-swap of a, so the degree filter
        # passes and only the search can tell the two apart
        rng = np.random.default_rng(303)
        outcomes = set()
        for _ in range(40):
            n = int(rng.integers(4, 8))
            a = random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
            b = swapped_relabelling(rng, a, 3)
            assert sorted(a.degrees()) == sorted(b.degrees())
            want = brute_isomorphic(a, b)
            assert isomorphic(a, b) == want
            assert isomorphic(b, a) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_ladders_within_and_past_the_budget(self, monkeypatch):
        # both cubic on 28 vertices, so only the embedding search tells them apart
        assert not isomorphic(prism(14), moebius_ladder(14))
        # 1000 attempts of 10 units
        monkeypatch.setattr(trace, "WORK_BUDGET", 10000)
        with pytest.raises(BudgetExceededError) as err:
            isomorphic(prism(14), moebius_ladder(14))
        spent, limit = re.search(
            r"embedding search: (\d+) work units > budget (\d+)", str(err.value)
        ).groups()
        assert int(spent) > int(limit) == 10000


class TestGraphStats:
    def test_k4_record(self):
        k4 = complete_graph(4)
        assert graph_stats(k4) == GraphStats(
            num_vertices=4,
            num_edges=6,
            max_degree=3,
            max_subgraph_density=Fraction(3, 2),
        )
        assert vertex_cover_number(k4) == 3
        assert automorphism_count(k4) == 24

    def test_density_vs_max_density(self):
        # pendant edge drags global density below the densest part
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        s = graph_stats(g)
        assert Fraction(s.num_edges, s.num_vertices) == Fraction(7, 5)
        assert s.max_subgraph_density == Fraction(3, 2)

    def test_computes_no_cover_or_automorphisms(self, monkeypatch):
        def refuse(g):
            raise AssertionError("not a threshold input")

        monkeypatch.setattr(invariants, "vertex_cover_number", refuse)
        monkeypatch.setattr(invariants, "automorphism_count", refuse)
        assert graph_stats(make_family("clique:5")) == GraphStats(
            num_vertices=5, num_edges=10, max_degree=4, max_subgraph_density=Fraction(2)
        )

    def test_budget_flows_through(self, monkeypatch):
        assert vertex_cover_number(complete_graph(60)) == 59
        monkeypatch.setattr(trace, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetExceededError):
            graph_stats(complete_graph(60))
