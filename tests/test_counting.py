"""Copy counting, containment probabilities and the copy-overlap tally, and
the spanning-tree and connected-set oracles that A8 reads."""

import re
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from plantedlab import (
    BudgetExceededError,
    Graph,
    Observation,
    complete_graph,
    containment_probability,
    copies_in_complete,
    count_copies,
    make_family,
)
from plantedlab import trace
from plantedlab.counting import _copy_overlaps, _labelled_copies

from oracles import (
    all_pairs,
    brute_connected_sets,
    brute_copies,
    brute_copies_in_complete,
    brute_spanning_trees,
    copy_masks,
    matrix_tree_count,
    random_connected_graph,
    random_graph,
    random_pattern,
)


class TestCountCopies:
    def test_known_values(self):
        k4 = complete_graph(4)
        triangle = complete_graph(3)
        assert count_copies(triangle, k4) == 4
        assert count_copies(make_family("path:2"), k4) == 12
        assert count_copies(Graph(2, [(0, 1)]), k4) == 6
        assert count_copies(k4, k4) == 1
        assert count_copies(triangle, make_family("star:5")) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(400)
        for _ in range(40):
            pattern = random_pattern(rng, 4)
            host = random_graph(rng, int(rng.integers(pattern.n, 8)), 0.55)
            assert count_copies(pattern, host) == brute_copies(pattern, host)

    def test_pattern_larger_than_host(self):
        with pytest.raises(ValueError):
            count_copies(complete_graph(5), complete_graph(4))

    def test_isolated_vertices_rejected(self):
        with pytest.raises(ValueError):
            count_copies(Graph(3, [(0, 1)]), complete_graph(4))

    def test_budget(self, monkeypatch):
        # attempts cost 10 units, charged by the batch of at most 64
        monkeypatch.setattr(trace, "WORK_BUDGET", 10000)
        with pytest.raises(BudgetExceededError) as err:
            count_copies(complete_graph(8), complete_graph(30))
        assert re.fullmatch(r"embedding search: \d+ work units > budget 10000", str(err.value))
        assert 10000 < err.value.spent <= 10000 + 640 and err.value.spent % 10 == 0


class TestCopiesInComplete:
    def test_closed_forms(self):
        # |S_Gamma| = C(n, k) k! / |Aut|
        assert copies_in_complete(complete_graph(3), 6) == 20
        assert copies_in_complete(Graph(2, [(0, 1)]), 4) == 6
        assert copies_in_complete(make_family("path:2"), 4) == comb(4, 3) * 3
        assert copies_in_complete(make_family("star:3"), 5) == comb(5, 4) * 4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(401)
        for _ in range(25):
            pattern = random_pattern(rng, 4)
            n = int(rng.integers(pattern.n, 7))
            assert copies_in_complete(pattern, n) == brute_copies_in_complete(
                pattern, n
            )

    def test_matches_count_copies_on_complete_host(self):
        rng = np.random.default_rng(402)
        for _ in range(15):
            pattern = random_pattern(rng, 4)
            n = int(rng.integers(pattern.n, 8))
            assert copies_in_complete(pattern, n) == count_copies(
                pattern, complete_graph(n)
            )


class TestContainmentProbability:
    def test_triangle_in_triangle(self):
        tri = complete_graph(3)
        assert containment_probability(tri, tri, 6) == Fraction(1, 20)

    def test_edge_in_triangle(self):
        edge = Graph(2, [(0, 1)])
        tri = complete_graph(3)
        # 3 of the C(4,2)=6 pairs lie inside a planted triangle
        assert containment_probability(edge, tri, 4) == Fraction(3, 6)

    def test_zero_when_subgraph_absent(self):
        assert containment_probability(
            complete_graph(3), make_family("star:4"), 6
        ) == Fraction(0)

    def test_double_counting_identity(self):
        # P[H' <= Gamma] * |S_H| = (# copies of H inside one copy of Gamma),
        # checked by brute enumeration of both sides
        rng = np.random.default_rng(403)
        for _ in range(25):
            gamma = random_pattern(rng, 5)
            sub = random_pattern(rng, min(gamma.n, 3))
            n = int(rng.integers(gamma.n, gamma.n + 3))
            prob = containment_probability(sub, gamma, n)
            expected = Fraction(
                brute_copies(sub, gamma), brute_copies_in_complete(sub, n)
            )
            assert prob == expected

    def test_symmetric_form(self):
        # P_Gamma[H' <= Gamma] == P_H[H <= Gamma'] (both copies uniform)
        tri, n = complete_graph(3), 8
        edge = Graph(2, [(0, 1)])
        # edge copy hits one of the 3 triangle edges among C(8,2) pairs
        assert containment_probability(edge, tri, n) == Fraction(3, comb(8, 2))


class TestSpanningTrees:
    """`oracles.matrix_tree_count`, the spanning-tree count A8 reads."""

    def test_closed_forms(self):
        # Cayley: K_n has n^(n-2) spanning trees
        for n in (2, 3, 4, 5, 6, 21):
            assert matrix_tree_count(complete_graph(n)) == n ** (n - 2)
        cycle5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert matrix_tree_count(cycle5) == 5
        assert matrix_tree_count(make_family("path:6")) == 1
        # K_{a,b} has a^(b-1) * b^(a-1)
        assert matrix_tree_count(make_family("complete_bipartite:2,3")) == 12
        assert matrix_tree_count(make_family("complete_bipartite:3,3")) == 81
        assert matrix_tree_count(make_family("matching:2")) == 0

    def test_single_vertex(self):
        assert matrix_tree_count(Graph(1, [])) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(500)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 8)), 0.4)
            assert matrix_tree_count(g) == brute_spanning_trees(g)


class TestConnectedSets:
    """`oracles.brute_connected_sets`, the connected-set count A8 reads."""

    def test_known_values(self):
        tri = complete_graph(3)
        assert brute_connected_sets(tri, 1, 0) == 1
        assert brute_connected_sets(tri, 2, 0) == 2
        assert brute_connected_sets(tri, 3, 0) == 1
        star = make_family("star:5")
        # size-3 sets containing the center pick 2 of 5 leaves
        assert brute_connected_sets(star, 3, 0) == comb(5, 2)
        # a leaf's size-3 sets must route through the center
        assert brute_connected_sets(star, 3, 1) == 4


def pair_bits(n, edges):
    """The C(n,2) bits of the graph on [n] with these edges, bit i for the
    i-th pair of all_pairs(n)."""
    bit = {pair: i for i, pair in enumerate(all_pairs(n))}
    bits = np.zeros(len(bit), dtype=bool)
    bits[[bit[edge] for edge in edges]] = True
    return bits


def check_copy_overlaps(pattern, n, rng):
    """Tally of the brute-force copy masks by overlap with three edge sets:
    the fixed copy, a random edge set and the empty set."""
    pairs = all_pairs(n)
    bit = {pair: i for i, pair in enumerate(pairs)}
    masks = copy_masks(pattern, n)
    random_edges = [pair for pair in pairs if rng.random() < 0.5]
    for edges in (pattern.edges, random_edges, []):
        given = sum(1 << bit[edge] for edge in edges)
        tally = [0] * (pattern.num_edges + 1)
        for mask in masks:
            tally[(mask & given).bit_count()] += 1
        assert _copy_overlaps(pattern, Observation._from_bits(n, pair_bits(n, edges))) == tally


class TestCopyEdgeMasks:
    def test_matches_brute_force_on_random_patterns(self):
        rng = np.random.default_rng(520)
        for _ in range(40):
            pattern = random_pattern(rng, 6)
            assert list(_labelled_copies(pattern)) == copy_masks(pattern, pattern.n)
            for n in range(pattern.n, 8):
                check_copy_overlaps(pattern, n, rng)

    def test_matches_brute_force_on_families(self):
        rng = np.random.default_rng(521)
        for spec in ("clique:4", "star:4", "path:4", "matching:3", "complete_bipartite:2,3"):
            pattern = make_family(spec)
            assert list(_labelled_copies(pattern)) == copy_masks(pattern, pattern.n)
            for n in range(pattern.n, 8):
                check_copy_overlaps(pattern, n, rng)
                copies = sum(_copy_overlaps(pattern, Observation._from_bits(n, pair_bits(n, []))))
                assert copies == copies_in_complete(pattern, n)


    def test_every_observation_form_gives_one_tally(self):
        # the matrix, edge-list and pair-bit constructions of one graph
        rng = np.random.default_rng(522)
        for spec, n in (("clique:3", 6), ("path:4", 7), ("star:3", 8)):
            pattern, g = make_family(spec), random_graph(rng, n, 0.5)
            adjacency = np.zeros((n, n), dtype=bool)
            for u, v in g.edges:
                adjacency[u, v] = adjacency[v, u] = True
            forms = (
                Observation(adjacency),
                Observation.from_graph(g),
                Observation._from_bits(n, pair_bits(n, g.edges)),
            )
            tallies = [_copy_overlaps(pattern, obs) for obs in forms]
            assert tallies[0] == tallies[1] == tallies[2]
            assert sum(tallies[0]) == copies_in_complete(pattern, n)


class TestAncillaryIdentities:
    def test_copies_times_aut_is_embeddings(self):
        # count_copies * |Aut| must equal the raw embedding count, so
        # |S_Gamma| * |Aut| == n (n-1) ... (n-k+1) on complete hosts
        pattern = make_family("path:3")
        n = 6
        embeddings = copies_in_complete(pattern, n) * 2  # path has 2 automorphisms
        assert embeddings == factorial(6) // factorial(6 - 4)
