"""Seeded samplers: determinism, marginals, and copy uniformity."""

import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from oracles import all_pairs, random_pattern, reference_sample
from plantedlab import (
    DegenerateQError,
    EmbeddedCopy,
    Graph,
    ModelParams,
    Observation,
    PatternTooLargeError,
    complete_graph,
    estimate_risk,
    make_family,
    sample_null,
    sample_planted,
    sample_uniform_copy,
    stream,
)
from plantedlab import sampling
from plantedlab.sampling import _edge_endpoints


TRIANGLE = complete_graph(3)
DERANDOMIZED = settings(derandomize=True, database=None, max_examples=60, deadline=None)
SEED = st.integers(0, 2**32 - 1)


@pytest.fixture
def fresh_pool(monkeypatch):
    """No draw pool at the start; one that the test starts is shut down after it."""
    monkeypatch.setattr(sampling, "_pool", None)
    yield
    if sampling._pool is not None:
        sampling._pool.shutdown()


class TestStream:
    def test_deterministic(self):
        a = stream(42, 1, 7).random(5)
        b = stream(42, 1, 7).random(5)
        assert np.array_equal(a, b)

    def test_indices_give_distinct_streams(self):
        base = stream(42).random(4)
        for idx in ((0,), (1,), (0, 1), (1, 0), (0, 0)):
            assert not np.array_equal(base, stream(42, *idx).random(4))
        assert not np.array_equal(
            stream(42, 0, 1).random(4), stream(42, 1, 0).random(4)
        )

    @pytest.mark.parametrize("indices", [(), (0, 3)])
    def test_negative_seed_names_the_seed(self, indices):
        # numpy's own refusal reads "expected non-negative integer"
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            stream(-1, *indices)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(n=10, p=0.9, q=0.2, pattern=TRIANGLE)
        assert p.n == 10

    def test_degenerate_plant_allowed(self):
        # p == q is the degenerate plant; the distribution collapses to H0
        ModelParams(n=10, p=0.3, q=0.3, pattern=TRIANGLE)

    def test_q_bounds(self):
        with pytest.raises(DegenerateQError):
            ModelParams(n=10, p=0.5, q=0.0, pattern=TRIANGLE)
        with pytest.raises(DegenerateQError):
            ModelParams(n=10, p=1.0, q=1.0, pattern=TRIANGLE)

    def test_p_bounds(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, p=0.1, q=0.2, pattern=TRIANGLE)
        with pytest.raises(ValueError):
            ModelParams(n=10, p=1.1, q=0.2, pattern=TRIANGLE)

    def test_pattern_requirements(self):
        with pytest.raises(PatternTooLargeError):
            ModelParams(n=2, p=0.9, q=0.1, pattern=TRIANGLE)
        with pytest.raises(ValueError):
            ModelParams(n=9, p=0.9, q=0.1, pattern=Graph(3, [(0, 1)]))
        with pytest.raises(ValueError):
            ModelParams(n=9, p=0.9, q=0.1, pattern=Graph(2, []))


class TestObservation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Observation(np.ones((3, 3), dtype=bool))  # nonzero diagonal
        asym = np.zeros((3, 3), dtype=bool)
        asym[0, 1] = True
        with pytest.raises(ValueError):
            Observation(asym)
        with pytest.raises(ValueError, match=r"^adjacency must be square, got shape \(2, 3\)$"):
            Observation(np.zeros((2, 3), dtype=bool))

    @pytest.mark.parametrize("n, q, message", [
        (0, 0.5, "n must be >= 1, got 0"),
        (4, 1.5, "q must lie in [0,1], got 1.5"),
        (4, -0.25, "q must lie in [0,1], got -0.25"),
    ])
    def test_sample_null_refusals(self, n, q, message):
        with pytest.raises(ValueError) as err:
            sample_null(n, q, stream(0))
        assert str(err.value) == message

    def test_immutability(self):
        obs = sample_null(5, 0.5, stream(1))
        with pytest.raises((ValueError, AttributeError)):
            obs.adjacency[0, 1] = True
        with pytest.raises(AttributeError, match=r"^Observation is immutable$"):
            obs.n = 6
        # another type is unequal, not an error
        assert obs != obs.to_graph() and obs != None  # noqa: E711

    def test_graph_round_trip(self):
        g = make_family("complete_bipartite:2,3")
        assert Observation.from_graph(g).to_graph() == g

    @pytest.mark.parametrize("n, q", [(1, 0.5), (2, 1.0), (9, 0.0), (40, 0.3), (300, 0.05)])
    def test_to_graph_equals_the_checked_construction(self, n, q):
        """`to_graph` takes the bits' row-major edges as canonical: the graph
        equals the one `Graph` builds, checked and sorted, from the same edges."""
        for seed in range(3):
            obs = sample_null(n, q, stream(seed, n))
            g, want = obs.to_graph(), Graph(n, list(obs.edges()))
            assert (g.n, g.edges, hash(g)) == (want.n, want.edges, hash(want)) and g == want
            assert g.degrees() == want.degrees() and Observation.from_graph(g) == obs

    def test_counts(self):
        obs = Observation.from_graph(make_family("star:4"))
        assert obs.num_edges == 4
        assert obs.max_degree() == 4
        assert obs.has_edge(0, 3) and not obs.has_edge(1, 2)

    @pytest.mark.parametrize("n", [1, 6, 62, 63, 254, 255, 256, 257, 511, 512])
    def test_max_degree_is_the_largest_degree(self, n):
        """Sampled, matrix-built and `from_graph` observations, on both
        sides of `_SMALL_N` = 62, the bound of the constructor's cached
        cells, and of one and two walk blocks of DEGREE_BLOCK = 255 rows;
        a held matrix is read by its row sums at any n, and no reader
        builds row masks."""
        sampled = sample_null(n, 0.5, stream(29, n))
        want = int(sampled.degrees().max())
        assert sampled.max_degree() == want and sampled._adjacency is None
        for obs in (Observation(sampled.adjacency), Observation.from_graph(sampled.to_graph())):
            assert obs.max_degree() == obs.degrees().max() == want
            assert type(obs.max_degree()) is int and obs._masks is None

    @pytest.mark.parametrize("n,edges", [(0, []), (1, []), (2, []), (2, [(0, 1)])])
    def test_tiny_graphs_read_alike(self, n, edges):
        """At n <= 2 every reader agrees across the three constructors,
        before and after the matrix is read."""
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            a[u, v] = a[v, u] = True
        bits = np.array([bool(edges)] * (n * (n - 1) // 2), dtype=bool)
        built = [Observation(a), Observation.from_graph(Graph(n, edges))]
        for obs in built + [Observation._from_bits(n, bits)]:
            for _ in range(2):
                degrees = obs.degrees()
                assert degrees.dtype == np.int64
                assert (degrees.tolist(), obs.edges(), obs.row_masks) == matrix_reads(a)
                assert obs.max_degree() == max(degrees.tolist(), default=0)
                assert type(obs.max_degree()) is int
                assert obs.num_edges == len(edges) and obs.n == n
                assert obs == built[0] and hash(obs) == hash(built[0])
                matrix = obs.adjacency
                assert matrix.shape == (n, n) and matrix.dtype == bool
                assert not matrix.flags.writeable and matrix.tobytes() == a.tobytes()

    def test_has_edge_reads_as_the_graph(self):
        """Equal vertices and vertices outside [0, n) read False, as in
        `Graph.has_edge`, whichever constructor built the observation."""
        sampled = sample_null(7, 0.5, stream(28))
        star = make_family("star:4")
        for obs in (sampled, Observation(sampled.adjacency), Observation.from_graph(star)):
            g = obs.to_graph()
            for u in range(-1, obs.n + 1):
                for v in range(-1, obs.n + 1):
                    assert obs.has_edge(u, v) is g.has_edge(u, v), (u, v)


class TestRowMasks:
    """Row masks and degrees, built on first read, against the matrix rows
    on both sides of 62 and 64, the bounds of the constructor's cached cells
    and of one 64-bit word."""

    SIZES = (1, 2, 61, 62, 63, 64, 65, 130)

    @staticmethod
    def assert_masks_are_rows(obs):
        rows = obs.adjacency
        want = [sum(1 << int(v) for v in np.flatnonzero(row)) for row in rows]
        assert obs.row_masks == tuple(want)
        assert all(type(mask) is int and mask >= 0 for mask in obs.row_masks)
        popcounts = [mask.bit_count() for mask in obs.row_masks]
        assert popcounts == rows.sum(axis=1).tolist() == obs.degrees().tolist()
        assert obs.row_masks is obs.row_masks

    @pytest.mark.parametrize("n", SIZES)
    def test_from_adjacency(self, n):
        rng = np.random.default_rng(n)
        a = np.triu(rng.random((n, n)) < 0.5, 1)
        a[0, 1:] = True  # the top bit, the int64 sign bit at n = 64, in row 0
        a |= a.T
        obs = Observation(a)
        self.assert_masks_are_rows(obs)
        assert obs.max_degree() == n - 1

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_sampled(self, n, q):
        obs = sample_null(n, q, stream(62, n))
        self.assert_masks_are_rows(obs)
        if q == 1.0:
            assert obs.row_masks == tuple(((1 << n) - 1) ^ (1 << u) for u in range(n))


class TestSampleNull:
    def test_extremes(self):
        assert sample_null(4, 0.0, stream(0)).num_edges == 0
        assert sample_null(4, 1.0, stream(0)).num_edges == 6

    def test_determinism(self):
        assert sample_null(20, 0.4, stream(9)) == sample_null(20, 0.4, stream(9))

    def test_mean_edge_count(self):
        # binomial: 10^4 samples of Bin(4950, 0.3); 3 sigma on the mean
        trials, pairs, q = 10_000, math.comb(100, 2), 0.3
        total = sum(
            sample_null(100, q, stream(123, k)).num_edges for k in range(trials)
        )
        mean = total / trials
        sigma = math.sqrt(pairs * q * (1 - q) / trials)
        assert abs(mean - pairs * q) < 3 * sigma


class TestSampleUniformCopy:
    def test_unique_copy(self):
        copy = sample_uniform_copy(TRIANGLE, 3, stream(2))
        assert copy.edge_set == {(0, 1), (0, 2), (1, 2)}

    def test_too_large(self):
        with pytest.raises(PatternTooLargeError):
            sample_uniform_copy(complete_graph(4), 3, stream(0))

    def test_injective_and_exact_image(self):
        pattern = make_family("path:3")
        rng = stream(3)
        for _ in range(50):
            copy = sample_uniform_copy(pattern, 9, rng)
            assert len(set(copy.vertex_map)) == pattern.n
            expected = {
                tuple(sorted((copy.vertex_map[u], copy.vertex_map[v])))
                for u, v in pattern.edges
            }
            assert copy.edge_set == expected

    def test_triangle_copies_uniform(self):
        # 4 copies in K_4; chi-square goodness of fit at level 1e-3
        trials = 40_000
        rng = stream(17)
        counts = Counter(
            sample_uniform_copy(TRIANGLE, 4, rng).edge_set for _ in range(trials)
        )
        assert len(counts) == 4
        chi2, pvalue = scipy_stats.chisquare(list(counts.values()))
        assert pvalue > 1e-3
        for freq in counts.values():
            assert abs(freq / trials - 0.25) < 0.01

    def test_edge_copies_uniform(self):
        edge = Graph(2, [(0, 1)])
        rng = stream(23)
        counts = Counter(
            sample_uniform_copy(edge, 3, rng).edge_set for _ in range(12_000)
        )
        assert len(counts) == 3
        _, pvalue = scipy_stats.chisquare(list(counts.values()))
        assert pvalue > 1e-3

    def test_star_copies_uniform(self):
        # |S| = C(4,3)*3 = 12 <= 30, the spec's uniformity envelope
        star = make_family("star:2")
        rng = stream(29)
        counts = Counter(
            sample_uniform_copy(star, 4, rng).edge_set for _ in range(24_000)
        )
        assert len(counts) == 12
        _, pvalue = scipy_stats.chisquare(list(counts.values()))
        assert pvalue > 1e-3


class TestSamplePlanted:
    def test_p_one_keeps_all_copy_edges(self):
        params = ModelParams(n=8, p=1.0, q=0.1, pattern=TRIANGLE)
        rng = stream(5)
        for _ in range(20):
            obs, copy = sample_planted(params, rng)
            for u, v in copy.edge_set:
                assert obs.has_edge(u, v)

    def test_determinism(self):
        params = ModelParams(n=12, p=0.8, q=0.2, pattern=make_family("star:3"))
        a, copy_a = sample_planted(params, stream(31, 1, 4))
        b, copy_b = sample_planted(params, stream(31, 1, 4))
        assert a == b and copy_a == copy_b

    def test_degenerate_plant_marginals(self):
        # p == q: every pair is Bernoulli(q) regardless of the copy
        params = ModelParams(n=6, p=0.3, q=0.3, pattern=TRIANGLE)
        trials = 20_000
        freq = np.zeros((6, 6))
        for k in range(trials):
            obs, _ = sample_planted(params, stream(777, k))
            freq += obs.adjacency
        freq /= trials
        sigma = math.sqrt(0.3 * 0.7 / trials)
        off_diag = freq[np.triu_indices(6, 1)]
        assert np.all(np.abs(off_diag - 0.3) < 4 * sigma)

    def test_edge_marginal_law(self):
        # P[pair present] = q + (p-q) * P[pair in copy] = 0.1 + 0.8*(3/15)
        params = ModelParams(n=6, p=0.9, q=0.1, pattern=TRIANGLE)
        trials = 100_000
        freq = np.zeros((6, 6))
        for k in range(trials):
            obs, _ = sample_planted(params, stream(999, k))
            freq += obs.adjacency
        freq /= trials
        expected = 0.26
        sigma = math.sqrt(expected * (1 - expected) / trials)
        off_diag = freq[np.triu_indices(6, 1)]
        assert np.all(np.abs(off_diag - expected) < 4 * sigma)

    def test_copy_is_uniform_within_planted_draws(self):
        params = ModelParams(n=4, p=0.9, q=0.2, pattern=TRIANGLE)
        counts = Counter(
            sample_planted(params, stream(55, k))[1].edge_set for k in range(20_000)
        )
        assert len(counts) == 4
        _, pvalue = scipy_stats.chisquare(list(counts.values()))
        assert pvalue > 1e-3


def matrix_reads(a):
    """(degrees, edges, row masks) read off the symmetric boolean matrix a
    itself: the reference for every walk over an observation's bits."""
    rows, cols = np.nonzero(np.triu(a, 1))
    packed = np.packbits(a, axis=1, bitorder="little")
    masks = tuple(int.from_bytes(row, "little") for row in packed)
    return a.sum(axis=1).tolist(), list(zip(rows.tolist(), cols.tolist())), masks


def assert_same_observation(obs, expected):
    """A fresh sampled `obs` reads as `Observation(expected)` on every
    accessor, before its adjacency is built and after, and the adjacency it
    builds is read-only."""
    want = Observation(expected)
    counts = (obs.num_edges, obs.degrees(), obs.max_degree())
    assert obs._adjacency is None, "edge count or degrees built the matrix"
    assert counts[0] == want.num_edges and counts[2] == want.max_degree()
    assert counts[1].dtype == np.int64
    assert np.array_equal(counts[1], want.degrees())
    degrees, edges, _ = matrix_reads(expected)
    assert counts[1].tolist() == degrees and obs.edges() == edges
    adjacency = obs.adjacency
    assert adjacency.tobytes() == want.adjacency.tobytes()
    assert not adjacency.flags.writeable
    with pytest.raises(ValueError):
        adjacency[0, 0] = True
    assert obs.adjacency is adjacency
    assert (obs.num_edges, obs.max_degree()) == (counts[0], counts[2])
    assert np.array_equal(obs.degrees(), counts[1])
    assert obs.edges() == want.edges()
    assert obs == want and want == obs
    assert hash(obs) == hash(want)


class TestDrawContract:
    """The samplers reproduce `oracles.reference_sample` bit for bit."""

    SIZES = (1, 2, 3, 7, 64, 257)
    KEYS = ((0, 0, 0), (11, 0, 5), (2024, 1, 3), (7, 1, 123))
    Q = 0.3

    @pytest.mark.parametrize("n", SIZES)
    def test_null_matches_reference(self, n):
        for key in self.KEYS:
            expected, _, _ = reference_sample(n, self.Q, stream(*key))
            obs = sample_null(n, self.Q, stream(*key))
            assert obs.adjacency.tobytes() == expected.tobytes()
            assert_same_observation(sample_null(n, self.Q, stream(*key)), expected)

    @pytest.mark.parametrize("spec", ["clique:3", "star:4", "path:3", "matching:2", "clique:8"])
    @pytest.mark.parametrize("p", [Q, 0.9, 1.0])
    def test_planted_matches_reference(self, spec, p):
        pattern = make_family(spec)
        for n in self.SIZES:
            if pattern.n > n:
                continue
            params = ModelParams(n=n, p=p, q=self.Q, pattern=pattern)
            for key in self.KEYS:
                expected, images, copy_edges = reference_sample(
                    n, self.Q, stream(*key), pattern, p
                )
                obs, copy = sample_planted(params, stream(*key))
                assert obs.adjacency.tobytes() == expected.tobytes()
                assert copy.vertex_map == images
                assert copy.edge_set == copy_edges
                assert_same_observation(sample_planted(params, stream(*key))[0], expected)

    # chunk 1 puts every pair on a boundary; 7 divides m = 21 (n=7),
    # 28 (n=8) and 2016 (n=64) exactly, and leaves a last partial chunk at
    # n=9 (m=36); 32 divides 2016 and leaves partial chunks at n=8 and 9
    @pytest.mark.parametrize("chunk", [1, 7, 32])
    def test_chunked_draws_match_reference(self, chunk, monkeypatch):
        monkeypatch.setattr(sampling, "DRAW_CHUNK", chunk)
        keys = self.KEYS + tuple((5, h, k) for h in (0, 1) for k in range(12))
        straddled = in_partial = False
        for n in (1, 2, 7, 8, 9, 64):
            for key in keys:
                expected, _, _ = reference_sample(n, self.Q, stream(*key))
                assert_same_observation(sample_null(n, self.Q, stream(*key)), expected)
            position = {pair: i for i, pair in enumerate(all_pairs(n))}
            m = len(position)
            for spec in ("clique:3", "star:4", "clique:8"):
                pattern = make_family(spec)
                if pattern.n > n:
                    continue
                params = ModelParams(n=n, p=0.9, q=self.Q, pattern=pattern)
                for key in keys:
                    expected, images, copy_edges = reference_sample(
                        n, self.Q, stream(*key), pattern, 0.9
                    )
                    obs, copy = sample_planted(params, stream(*key))
                    assert copy.vertex_map == images
                    assert_same_observation(obs, expected)
                    chunks = {position[pair] // chunk for pair in copy_edges}
                    straddled |= any(j + 1 in chunks for j in chunks)
                    in_partial |= m % chunk > 0 and (m - 1) // chunk in chunks
        assert straddled and (in_partial or chunk == 1)

    @staticmethod
    def split_small(monkeypatch, pieces):
        """Split every draw of two or more 7-pair chunks into `pieces`."""
        monkeypatch.setattr(sampling, "DRAW_CHUNK", 7)
        monkeypatch.setattr(sampling, "_SPLIT_CHUNKS", 2)
        monkeypatch.setattr(sampling, "_DRAW_PIECES", pieces)

    @staticmethod
    def assert_same_end_state(rng, want):
        """`rng` ends where the reference's sequential `random(C(n,2))` left `want`."""
        np.testing.assert_equal(rng.bit_generator.state, want.bit_generator.state)
        assert rng.random() == want.random()

    # with 7-pair chunks, m = 21 (n=7) is 3 chunks, 36 (n=9) ends in a partial
    # one, and 2016 (n=64) and 32896 (n=257) split far from their ends
    @pytest.mark.parametrize("pieces", [2, 3])
    def test_split_draws_match_reference(self, pieces, monkeypatch):
        self.split_small(monkeypatch, pieces)
        many = self.KEYS + tuple((5, h, k) for h in (0, 1) for k in range(12))
        straddled = False
        for n in (7, 9, 64, 257):
            keys = many if n < 257 else self.KEYS
            m = n * (n - 1) // 2
            cuts = sampling._piece_starts(m, stream(0).bit_generator)
            assert len(cuts) == pieces and all(lo % 7 == 0 for lo in cuts)
            for key in keys:
                rng, want = stream(*key), stream(*key)
                expected, _, _ = reference_sample(n, self.Q, want)
                assert_same_observation(sample_null(n, self.Q, rng), expected)
                self.assert_same_end_state(rng, want)
            position = {pair: i for i, pair in enumerate(all_pairs(n))}
            for spec in ("clique:3", "star:4", "clique:8"):
                pattern = make_family(spec)
                if pattern.n > n:
                    continue
                for p in (self.Q, 0.9, 1.0):
                    params = ModelParams(n=n, p=p, q=self.Q, pattern=pattern)
                    for key in keys:
                        rng, want = stream(*key), stream(*key)
                        expected, images, copy_edges = reference_sample(
                            n, self.Q, want, pattern, p
                        )
                        obs, copy = sample_planted(params, rng)
                        assert copy.vertex_map == images
                        assert_same_observation(obs, expected)
                        self.assert_same_end_state(rng, want)
                        sides = {bisect_right(cuts, position[pair]) for pair in copy_edges}
                        straddled |= any(i + 1 in sides for i in sides)
        assert straddled, "no copy had edges on both sides of a piece boundary"

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_draw_in_one_piece(self, bit_generator, monkeypatch, fresh_pool):
        self.split_small(monkeypatch, 3)
        pattern = make_family("clique:3")
        for n in (9, 64):
            assert sampling._piece_starts(n * (n - 1) // 2, bit_generator(0)) == [0]
            params = ModelParams(n=n, p=0.9, q=self.Q, pattern=pattern)
            for seed in range(4):
                rng, want = (np.random.Generator(bit_generator(seed)) for _ in range(2))
                expected, _, _ = reference_sample(n, self.Q, want)
                assert_same_observation(sample_null(n, self.Q, rng), expected)
                expected, images, _ = reference_sample(n, self.Q, want, pattern, 0.9)
                obs, copy = sample_planted(params, rng)
                assert copy.vertex_map == images
                assert_same_observation(obs, expected)
                self.assert_same_end_state(rng, want)
        assert sampling._pool is None, "a one-piece draw started the draw pool"


class TestTriangleBlocks:
    """Degrees, row masks, adjacency and edges of a sampled draw, walked
    DEGREE_BLOCK rows at a time, against the same graph built as
    `Observation(adjacency)` from its bits, at every block edge."""

    @pytest.mark.parametrize("block", [1, 7, 8, 64])
    @pytest.mark.parametrize("q", [0.4, 1.0])
    def test_match_the_matrix_route(self, block, q, monkeypatch):
        monkeypatch.setattr(sampling, "DEGREE_BLOCK", block)
        sizes = {1, 2, 3, 63, 64, block - 1, block, block + 1, block + 2, 2 * block + 1, 1000}
        for n in sorted(sizes - {0}):
            obs = sample_null(n, q, stream(27, n, block))
            a = np.zeros((n, n), dtype=bool)
            a[np.triu_indices(n, 1)] = obs._bits
            want = Observation(a | a.T)
            assert want == obs, "the copied-out bits differ from the draw's"
            assert (obs.degrees().tolist(), obs.edges(), obs.row_masks) == matrix_reads(a | a.T)
            degrees = obs.degrees()
            assert degrees.dtype == np.int64 and np.array_equal(degrees, want.degrees())
            assert obs.max_degree() == want.max_degree()
            assert obs.edges() == want.edges()
            assert obs.row_masks == want.row_masks
            assert [m.bit_count() for m in obs.row_masks] == [m.bit_count() for m in want.row_masks]
            assert obs._adjacency is None, "a walk built the matrix"
            assert obs.adjacency.tobytes() == want.adjacency.tobytes()
            assert not obs.adjacency.flags.writeable
            assert obs.to_graph() == want.to_graph()

    @pytest.mark.parametrize("complete", [True, False])
    def test_full_blocks_match_the_matrix(self, complete):
        """K_600, where every column's count inside a block of DEGREE_BLOCK =
        255 rows reaches 255, and the empty graph on 600 vertices."""
        n = 600
        g = complete_graph(n) if complete else Graph(n, [])
        obs = Observation.from_graph(g)
        a = np.ones((n, n), dtype=bool) if complete else np.zeros((n, n), dtype=bool)
        np.fill_diagonal(a, False)
        degrees, _, masks = matrix_reads(a)
        assert obs.degrees().tolist() == degrees == [n - 1 if complete else 0] * n
        assert obs.row_masks == masks
        assert obs.adjacency.tobytes() == a.tobytes()

    def test_edges_are_python_int_pairs(self):
        obs, _ = sample_planted(TestDrawMemory.PARAMS, stream(5))
        edges = obs.edges()
        assert all(type(u) is int and type(v) is int and u < v for u, v in edges)
        assert edges == sorted(edges) and len(edges) == obs.num_edges


class TestDrawMemory:
    """A draw holds its bits, one byte per pair, and one chunk of uniforms;
    numpy reports its buffers to tracemalloc."""

    N = 3000
    PARAMS = ModelParams(n=N, p=0.9, q=0.2, pattern=make_family("star:300"))

    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peak_bytes_per_pair(self, run):
        return self.peak_bytes(run) / (self.N * (self.N - 1) // 2)

    def test_null(self):
        assert self.peak_bytes_per_pair(lambda: sample_null(self.N, 0.2, stream(3))) < 1.5

    def test_planted(self):
        assert self.peak_bytes_per_pair(lambda: sample_planted(self.PARAMS, stream(3))) < 1.5

    def test_risk_trials_hold_one_draw_at_a_time(self):
        peak = self.peak_bytes_per_pair(lambda: estimate_risk("count", self.PARAMS, 2, seed=0))
        assert peak < 1.5

    def test_degree_trial_builds_no_matrix(self):
        peak = self.peak_bytes_per_pair(lambda: estimate_risk("degree", self.PARAMS, 1, seed=0))
        assert peak < 1.5

    def test_row_masks_build_no_matrix(self):
        peak = self.peak_bytes_per_pair(lambda: sample_null(self.N, 0.2, stream(3)).row_masks)
        assert peak < 2.5

    def test_accessors_build_no_matrix(self):
        """On a sparse draw, edge tests, equality and hash read the bits in
        place, and edges() holds little beyond the list it returns; the
        matrix would take two bytes a pair."""
        obs, twin = (sample_null(self.N, 0.002, stream(3)) for _ in range(2))
        u, v = obs.edges()[0]
        assert self.peak_bytes_per_pair(lambda: obs.has_edge(v, u)) < 0.01
        assert self.peak_bytes_per_pair(lambda: obs == twin) < 0.01
        assert self.peak_bytes_per_pair(lambda: hash(obs)) < 0.01
        assert self.peak_bytes_per_pair(obs.edges) < 0.5
        assert obs._adjacency is None and obs == twin and hash(obs) == hash(twin)

    @pytest.mark.parametrize("block", [64, 256])
    def test_walks_hold_one_block_beyond_the_bits(self, block, monkeypatch):
        """Degrees take a block of rows and a few vectors beyond the bits;
        row masks add their packed rows and their ints, n^2/8 bytes each."""
        monkeypatch.setattr(sampling, "DEGREE_BLOCK", block)
        n, obs = self.N, sample_null(self.N, 0.2, stream(3))
        walk = 2 * block * n + 64 * n
        assert self.peak_bytes(obs.degrees) < walk
        assert self.peak_bytes(lambda: obs.row_masks) < 2 * n * n / 8 + walk


def draw_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("plantedlab-draw")}


def _draw_in_child(conn, n):
    conn.send_bytes(sample_null(n, 0.2, stream(9))._bits.tobytes())
    conn.close()


class TestDrawThreads:
    """A split draw's pool starts on the first split draw and is rebuilt in
    a forked child; a draw below the split size starts no thread."""

    def test_draws_below_the_split_size_start_no_thread(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(sampling, "_DRAW_PIECES", 2)
        n = 724  # C(724, 2) = 261 726 pairs, below 8 chunks of 2^15; C(725, 2) is past them
        assert sampling._piece_starts(n * (n - 1) // 2, stream(0).bit_generator) == [0]
        assert len(sampling._piece_starts(n * (n + 1) // 2, stream(0).bit_generator)) == 2
        before = threading.active_count()
        sample_null(n, 0.2, stream(1))
        sample_planted(ModelParams(n=n, p=0.9, q=0.2, pattern=make_family("star:300")), stream(1))
        # the mc-scan trial: clique:5 at n=40
        estimate_risk("count", ModelParams(n=40, p=1.0, q=0.05, pattern=complete_graph(5)), 4, seed=0)
        assert threading.active_count() == before
        assert sampling._pool is None

    def test_risk_is_the_same_split_and_on_two_threads(self, monkeypatch, fresh_pool):
        params = ModelParams(n=60, p=0.9, q=0.2, pattern=make_family("star:8"))
        whole = estimate_risk("degree", params, 20, seed=4)
        TestDrawContract.split_small(monkeypatch, 3)
        # more trial threads than cores race to start the pool, switching often
        interval, before = sys.getswitchinterval(), draw_threads()
        sys.setswitchinterval(1e-6)
        try:
            assert estimate_risk("degree", params, 20, seed=4, threads=4) == whole
        finally:
            sys.setswitchinterval(interval)
        assert len(draw_threads() - before) <= 2, "the racing threads started two pools"
        assert estimate_risk("degree", params, 20, seed=4) == whole
        assert estimate_risk("degree", params, 20, seed=4, threads=2) == whole

    def test_a_forked_child_draws(self, monkeypatch, fresh_pool):
        """The child of a parent whose pool has started gets a pool of its own:
        the pool it inherits has no threads and never runs what it is handed."""
        monkeypatch.setattr(sampling, "_DRAW_PIECES", 2)
        n = 1000
        assert len(sampling._piece_starts(n * (n - 1) // 2, stream(0).bit_generator)) == 2
        want = sample_null(n, 0.2, stream(9))._bits.tobytes()
        assert sampling._pool is not None
        fork = multiprocessing.get_context("fork")
        reader, writer = fork.Pipe(duplex=False)
        child = fork.Process(target=_draw_in_child, args=(writer, n))
        with warnings.catch_warnings():
            # Python 3.12 warns on forking a process that runs threads
            warnings.simplefilter("ignore", DeprecationWarning)
            child.start()
        writer.close()
        try:
            assert reader.poll(30), "the child's draw did not return"
            assert reader.recv_bytes() == want
            child.join(30)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
            reader.close()


class TestEmbeddedCopy:
    def test_from_map(self):
        copy = EmbeddedCopy.from_map(make_family("path:2"), (5, 2, 7))
        assert copy.edge_set == {(2, 5), (2, 7)}

    def test_from_map_holds_python_ints(self):
        images = tuple(np.int64(v) for v in (5, 2, 7))
        copy = EmbeddedCopy.from_map(make_family("path:2"), images)
        assert copy.edge_set == {(2, 5), (2, 7)}
        assert all(type(v) is int for v in copy.vertex_map)
        assert all(type(v) is int for edge in copy.edge_set for v in edge)

    def test_injectivity_required(self):
        with pytest.raises(ValueError):
            EmbeddedCopy.from_map(TRIANGLE, (1, 1, 2))
        with pytest.raises(ValueError):
            EmbeddedCopy.from_map(TRIANGLE, tuple(np.array([4, 0, 4])))

    def test_edge_endpoints_read_only(self):
        ends = _edge_endpoints(make_family("star:3"))
        assert ends.tolist() == [[0, 1], [0, 2], [0, 3]]
        with pytest.raises(ValueError):
            ends[0, 0] = 5


class TestBitsBackedObservation:
    """An observation kept as its row-major bits against the public
    constructor, and a copy's lazy edge set against the eager formula."""

    @DERANDOMIZED
    @given(n=st.integers(1, 40), density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), seed=SEED)
    def test_agrees_with_the_public_observation(self, n, density, seed):
        bits = np.random.default_rng(seed).random(n * (n - 1) // 2) < density
        a = np.zeros((n, n), dtype=bool)
        a[np.triu_indices(n, 1)] = bits
        a |= a.T
        want = Observation(a)
        lazy = Observation._from_bits(n, bits.copy())
        for obs in (want, lazy):
            assert (obs.degrees().tolist(), obs.edges(), obs.row_masks) == matrix_reads(a)
        assert lazy.n == want.n
        assert lazy.num_edges == want.num_edges == int(bits.sum())
        assert np.array_equal(lazy.degrees(), want.degrees())
        assert lazy.degrees().dtype == want.degrees().dtype
        assert lazy.max_degree() == want.max_degree()
        assert repr(lazy) == repr(want)
        assert lazy.adjacency.tobytes() == want.adjacency.tobytes()
        assert not lazy.adjacency.flags.writeable
        assert lazy.edges() == want.edges()
        assert lazy.to_graph() == want.to_graph()
        u, v = np.random.default_rng(seed).integers(0, n, 2)
        assert lazy.has_edge(u, v) is want.has_edge(u, v)  # a bool from numpy ints too
        assert np.array_equal(want._bits, bits) and not want._bits.flags.writeable
        # equal observations hash equal, whichever constructor built them
        for obs in (lazy, Observation.from_graph(want.to_graph())):
            assert obs == want and want == obs and hash(obs) == hash(want)
        if bits.size:
            flipped = bits.copy()
            flipped[seed % bits.size] ^= True
            assert Observation._from_bits(n, flipped) != want
        assert lazy.num_edges == want.num_edges  # again, with adjacency built
        assert np.array_equal(lazy.degrees(), want.degrees())

    @DERANDOMIZED
    @given(seed=SEED, same_pattern=st.booleans(), same_map=st.booleans())
    def test_copies(self, seed, same_pattern, same_map):
        rng = np.random.default_rng(seed)
        pattern = random_pattern(rng, 6)
        # a different pattern on as many vertices, so that the maps can match
        other = pattern if same_pattern else Graph(pattern.n, pattern.edges[1:])
        n = pattern.n + int(rng.integers(0, 4))
        perm = rng.permutation(n)
        images = tuple(int(x) for x in perm[: pattern.n])
        others = tuple(int(x) for x in (perm if same_map else rng.permutation(n))[: other.n])
        a = EmbeddedCopy.from_map(pattern, images)
        b = EmbeddedCopy.from_map(other, tuple(np.array(others)))
        equal = pattern == other and images == others
        assert (a == b) == equal  # before either edge set is built
        for copy, g, vmap in ((a, pattern, images), (b, other, others)):
            assert copy.edge_set == frozenset(
                (min(vmap[u], vmap[v]), max(vmap[u], vmap[v])) for u, v in g.edges
            )
        assert (a == b) == equal
        if equal:
            assert hash(a) == hash(b)
