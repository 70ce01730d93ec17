"""Detector thresholds, decisions, budgets, and exact-risk comparisons."""

import hashlib
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab import (
    BudgetExceededError,
    DetectorConfig,
    Graph,
    ModelParams,
    Observation,
    PlantedLabError,
    Verdict,
    complete_graph,
    copies_in_complete,
    count_test,
    degree_condition_satisfied,
    degree_condition_value,
    degree_test,
    densest_subgraph,
    likelihood_ratio_test,
    make_family,
    sample_null,
    sample_planted,
    scan_test,
    scan_test_over_pattern,
    stream,
)
from plantedlab import detectors, trace
from plantedlab.counting import _shared_edges, _subset_cells
from plantedlab.detectors import _SCAN_ENUMERATED_COPIES, _scan_statistic, _suffix_caps

from oracles import (
    all_pairs,
    brute_scan_statistic,
    copy_masks,
    exact_distributions,
    exact_risk,
    random_graph,
    random_pattern,
)

TRIANGLE = complete_graph(3)
K4_PENDANT = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def mask_to_observation(mask: int, n: int) -> Observation:
    a = np.zeros((n, n), dtype=bool)
    for i, (u, v) in enumerate(all_pairs(n)):
        if mask >> i & 1:
            a[u, v] = a[v, u] = True
    return Observation(a)


def all_observations(n: int):
    for mask in range(1 << math.comb(n, 2)):
        yield mask, mask_to_observation(mask, n)


class TestVerdict:
    def test_invariant_enforced(self):
        Verdict(5.0, 3.0)
        Verdict(1.0, 3.0)

    def test_decision_is_worked_out(self):
        assert Verdict(5.0, 3.0).decision == 1
        assert Verdict(1.0, 3.0).decision == 0
        assert Verdict(3.0, 3.0).decision == 1  # ties reject
        assert Verdict(Fraction(1), Fraction(1)).decision == 1


class TestCountTest:
    def test_threshold_formula(self):
        params = ModelParams(n=6, p=0.9, q=0.3, pattern=TRIANGLE)
        v = count_test(Observation.from_graph(complete_graph(6)), params)
        assert v.threshold == 15 * 0.3 + 3 * 0.6 / 2
        assert v.statistic == 15.0 and v.decision == 1

    def test_empty_observation_accepts(self):
        params = ModelParams(n=6, p=0.9, q=0.1, pattern=TRIANGLE)
        v = count_test(Observation(np.zeros((6, 6), dtype=bool)), params)
        assert v.decision == 0 and v.statistic == 0.0

    def test_tie_rejects(self):
        # q = p = 0.5 puts the threshold exactly at 3 observed edges
        params = ModelParams(n=4, p=0.5, q=0.5, pattern=make_family("path:2"))
        obs = Observation.from_graph(make_family("path:3"))
        v = count_test(obs, params)
        assert v.statistic == v.threshold == 3.0
        assert v.decision == 1

    @pytest.mark.parametrize("m", [4, 12])
    def test_observation_of_another_size(self, m):
        # it judged m vertices' edge count against n=10's threshold
        params = ModelParams(n=10, p=0.9, q=0.3, pattern=TRIANGLE)
        with pytest.raises(ValueError) as err:
            count_test(sample_null(m, 0.5, stream(616, m)), params)
        assert str(err.value) == f"observation on {m} vertices, but the model has n=10"


class TestDegreeTest:
    def test_threshold_formula(self):
        pattern = make_family("star:4")
        params = ModelParams(n=10, p=0.8, q=0.2, pattern=pattern)
        obs = Observation.from_graph(make_family("star:9"))
        v = degree_test(obs, params)
        assert v.statistic == 9.0
        assert v.threshold == pytest.approx(9 * 0.2 + 4 * 0.6 / 2)
        assert v.decision == 1

    def test_empty_observation_accepts(self):
        params = ModelParams(n=6, p=0.9, q=0.1, pattern=TRIANGLE)
        v = degree_test(Observation(np.zeros((6, 6), dtype=bool)), params)
        assert v.decision == 0

    @pytest.mark.parametrize("m", [4, 12])
    def test_observation_of_another_size(self, m):
        # it judged m vertices' largest degree against n=10's threshold
        params = ModelParams(n=10, p=0.9, q=0.3, pattern=TRIANGLE)
        with pytest.raises(ValueError) as err:
            degree_test(sample_null(m, 0.5, stream(617, m)), params)
        assert str(err.value) == f"observation on {m} vertices, but the model has n=10"

    def test_condition_diagnostic(self):
        # the guarantee quantity for the large star configuration: ~18 > 16
        params = ModelParams(n=2000, p=0.9, q=0.2, pattern=make_family("star:300"))
        value = degree_condition_value(params)
        chi2 = 0.7**2 / (0.2 * 0.8)
        expected = min(
            300**2 * chi2 / (2000 * math.log(2000)), 300 * 0.7 / math.log(2000)
        )
        assert value == pytest.approx(expected)
        assert 16 < value < 20
        assert degree_condition_satisfied(params)


class TestScanTest:
    def test_planted_complete_pattern_saturates(self):
        params = ModelParams(n=10, p=1.0, q=0.05, pattern=complete_graph(4))
        a = np.zeros((10, 10), dtype=bool)
        for u in (2, 5, 6, 9):
            for v in (2, 5, 6, 9):
                if u != v:
                    a[u, v] = True
        v = scan_test(Observation(a), params)
        assert v.statistic == 6.0
        assert v.decision == 1

    def test_empty_observation_accepts(self):
        params = ModelParams(n=8, p=0.9, q=0.1, pattern=TRIANGLE)
        v = scan_test(Observation(np.zeros((8, 8), dtype=bool)), params)
        assert v.statistic == 0.0 and v.decision == 0

    def test_statistic_matches_brute_force_complete_target(self):
        rng = np.random.default_rng(600)
        for pattern in (TRIANGLE, complete_graph(4)):
            params = ModelParams(n=7, p=0.9, q=0.3, pattern=pattern)
            for k in range(8):
                obs = sample_null(7, 0.45, stream(601, k))
                got = scan_test(obs, params).statistic
                want = brute_scan_statistic(obs.adjacency, pattern)
                assert got == float(want)

    def test_statistic_matches_brute_force_general_target(self):
        # a path is its own densest subgraph, exercising the placement search
        pattern = make_family("path:3")
        params = ModelParams(n=7, p=0.9, q=0.3, pattern=pattern)
        for k in range(8):
            obs = sample_null(7, 0.4, stream(602, k))
            got = scan_test(obs, params).statistic
            want = brute_scan_statistic(obs.adjacency, pattern)
            assert got == float(want)

    def test_scan_uses_densest_subgraph(self):
        # for K4 + pendant the scan target is the K4, so the threshold is
        # kappa * 6, not kappa * 7
        params = ModelParams(n=8, p=0.9, q=0.1, pattern=K4_PENDANT)
        obs = sample_null(8, 0.2, stream(603))
        v = scan_test(obs, params)
        assert v.threshold == pytest.approx(0.5 * (0.9 + 0.1) * 6)
        v_full = scan_test_over_pattern(obs, params)
        assert v_full.threshold == pytest.approx(0.5 * (0.9 + 0.1) * 7)

    def test_budget(self, monkeypatch):
        # C(30, 10) copies, yet the search is small: no copy cap refuses it
        params = ModelParams(n=30, p=0.9, q=0.1, pattern=complete_graph(10))
        obs = sample_null(30, 0.1, stream(604))
        verdict = scan_test(obs, params)
        assert verdict.statistic == _scan_statistic(obs, complete_graph(10))
        # the work meter is what stops a scan
        monkeypatch.setattr(trace, "WORK_BUDGET", 1000)
        with pytest.raises(BudgetExceededError) as err:
            scan_test(obs, params)
        assert re.fullmatch(r"scan: \d+ work units > budget 1000", str(err.value))

    def test_clique_seven_at_forty(self):
        # 18.6M copies of K7 in K40, scanned within the default meter
        params = ModelParams(n=40, p=1.0, q=0.05, pattern=complete_graph(7))
        for k in range(2):
            null = sample_null(40, 0.05, stream(612, k))
            planted, _ = sample_planted(params, stream(613, k))
            want = _scan_statistic(null, params.pattern)
            assert scan_test(null, params).statistic == want
            assert scan_test(planted, params).statistic == 21

    @staticmethod
    def assert_scans_match_brute_force(rng, pattern, n, density=None):
        if density is None:
            density = float(rng.random())
        obs = Observation.from_graph(random_graph(rng, n, density))
        params = ModelParams(n=n, p=0.9, q=0.3, pattern=pattern)
        want = brute_scan_statistic(obs.adjacency, densest_subgraph(pattern))
        assert scan_test(obs, params).statistic == float(want)
        want = brute_scan_statistic(obs.adjacency, pattern)
        assert scan_test_over_pattern(obs, params).statistic == float(want)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pattern = random_pattern(rng, 6)
        self.assert_scans_match_brute_force(
            rng, pattern, int(rng.integers(pattern.n, 9))
        )

    # Targets whose later positions all continue one twin chain, where the
    # neighbour-count bound only counts free vertices above the last image,
    # and disconnected ones.
    CHAIN_AND_SPLIT_TARGETS = (
        K4_PENDANT,
        make_family("complete_bipartite:2,3"),
        make_family("star:4"),
        make_family("matching:3"),
        make_family("disjoint_triangles:2"),
        Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
    )

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
        named=st.sampled_from([None, *range(len(CHAIN_AND_SPLIT_TARGETS))]),
    )
    def test_sparse_hosts_match_brute_force(self, seed, density, named):
        # a random target with up to 6 vertices (often disconnected) or a
        # named one, on hosts with up to 8 vertices down to density .05
        rng = np.random.default_rng(seed)
        if named is None:
            pattern = random_pattern(rng, 6, float(rng.uniform(0.3, 0.9)))
        else:
            pattern = self.CHAIN_AND_SPLIT_TARGETS[named]
        self.assert_scans_match_brute_force(
            rng, pattern, int(rng.integers(pattern.n, 9)), density
        )

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.05, 0.1, 0.15]),
        k=st.sampled_from([4, 5]),
    )
    def test_clique_targets_on_sparse_hosts_match_brute_force(self, seed, density, k):
        # few triangles, so the suffix-density cap on the inner edges binds
        rng = np.random.default_rng(seed)
        self.assert_scans_match_brute_force(
            rng, complete_graph(k), int(rng.integers(k, 13)), density
        )

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]),
    )
    def test_suffix_caps_bound_the_densest_suffix_sets(self, seed, density):
        # against the most host edges among any L vertices ranked after r:
        # never below it for L <= 5, equal to it for L <= 3, and never
        # above the inner edges it caps
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        g = random_graph(rng, n, density)
        ranked = [int(v) for v in rng.permutation(n)]
        wants = [(size, math.comb(size, 2)) for size in range(2, 6)]
        wants += [(size, int(rng.integers(0, math.comb(size, 2) + 1))) for size in range(2, 6)]
        caps = _suffix_caps(Observation.from_graph(g).row_masks, ranked, wants)
        for (size, own), cap in zip(wants, caps):
            assert len(cap) == n
            for r in range(n):
                if n - 1 - r < size:
                    continue
                most = max(
                    sum(g.has_edge(u, v) for u, v in combinations(chosen, 2))
                    for chosen in combinations(ranked[r + 1 :], size)
                )
                assert own >= cap[r] >= min(own, most)
                if size <= 3:
                    assert cap[r] == min(own, most)

    def test_null_clique_five_scans_charge_under_a_ceiling(self):
        # 24 null G(40, .05) draws for clique:5 charge ~18.5k units a draw
        # with the suffix-density cap, ~33k without it
        target, spent = complete_graph(5), []

        def scan(obs):
            _scan_statistic(obs, target)
            spent.append(trace.WORK_BUDGET - trace.left())

        for j in range(24):
            trace.metered(scan)(sample_null(40, 0.05, stream(615, j)))
        assert sum(spent) < 24 * 24_000

    # scan_test on G(40, .05) draws at seeds 613 (null, p = 1) and 614
    # (planted, p = .7), k = 5, 6 and j = 0..3, as computed by the plain
    # back-edge branch and bound that preceded the neighbour-count bound.
    PINNED_SCANS = {
        5: ([5, 6, 5, 5], [6, 8, 8, 8]),
        6: ([6, 6, 7, 6], [12, 13, 10, 13]),
    }

    @pytest.mark.parametrize("k", [5, 6])
    def test_pinned_clique_scans_on_sparse_hosts(self, k):
        pattern = complete_graph(k)
        null, planted = self.PINNED_SCANS[k]
        params = ModelParams(n=40, p=1.0, q=0.05, pattern=pattern)
        got = [
            scan_test(sample_null(40, 0.05, stream(613, k, j)), params).statistic
            for j in range(4)
        ]
        assert got == null
        params = ModelParams(n=40, p=0.7, q=0.05, pattern=pattern)
        got = [
            scan_test(sample_planted(params, stream(614, k, j))[0], params).statistic
            for j in range(4)
        ]
        assert got == planted

    @pytest.mark.parametrize(
        "pattern",
        [
            make_family("star:4"),  # open twins
            make_family("complete_bipartite:2,3"),
            complete_graph(4),  # closed twins
            make_family("matching:2"),
            complete_graph(2),
            K4_PENDANT,
        ],
        ids=["star4", "k23", "k4", "matching2", "k2", "k4_pendant"],
    )
    def test_twin_patterns_match_brute_force(self, pattern):
        rng = np.random.default_rng(612)
        for n in range(pattern.n, 8):
            for _ in range(4):
                self.assert_scans_match_brute_force(rng, pattern, n)

    # Targets with chain positions (the clique, the star's leaves, the
    # K_{2,3} side of three) and without them (the path's inner vertices).
    SKEWED_TARGETS = (
        complete_graph(3),
        complete_graph(4),
        make_family("star:4"),
        make_family("path:4"),
        make_family("path:5"),
        make_family("complete_bipartite:2,3"),
    )

    @staticmethod
    def skewed_host(rng, kind: str, n: int) -> np.ndarray:
        """A host whose degrees are far apart: a clique or a star added to
        G(n, .05), or G(m, .5) on m < n vertices with the rest isolated,
        shuffled among the labels."""
        if kind == "isolated":
            m = int(rng.integers(2, n))
            a = np.zeros((n, n), dtype=bool)
            a[:m, :m] = rng.random((m, m)) < 0.5
            perm = rng.permutation(n)
            a = a[np.ix_(perm, perm)]
        else:
            a = rng.random((n, n)) < 0.05
            if kind == "clique":
                members = rng.permutation(n)[: int(rng.integers(3, min(n, 6) + 1))]
                a[np.ix_(members, members)] = True
            else:
                centre, *leaves = rng.permutation(n)[: int(rng.integers(3, n + 1))]
                a[centre, leaves] = True
        a = np.triu(a, 1)
        return a | a.T

    @settings(derandomize=True, database=None, max_examples=240, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["clique", "star", "isolated"]),
        target=st.sampled_from(range(len(SKEWED_TARGETS))),
    )
    def test_skewed_degree_hosts(self, seed, kind, target):
        # the rank walk and the degree-sum bound: the statistic is the brute
        # maximum and does not depend on how the host is labelled
        rng = np.random.default_rng(seed)
        pattern = self.SKEWED_TARGETS[target]
        n = int(rng.integers(max(pattern.n, 4), 10))
        a = self.skewed_host(rng, kind, n)
        got = _scan_statistic(Observation(a), pattern)
        assert got == brute_scan_statistic(a, pattern)
        perm = rng.permutation(n)
        assert _scan_statistic(Observation(a[perm][:, perm]), pattern) == got

    # Seeded draws for the identity check below: clique, star, path and
    # matching targets on n = 6..90 at q = .05 to .5, null and planted by turns.
    SCAN_KINDS = ("clique", "star", "path", "matching")
    SCAN_SIZES = {"clique": (3, 4, 5, 6), "star": (3, 4, 5), "path": (3, 4, 5),
                  "matching": (2, 3)}
    SCAN_QS = (0.05, 0.1, 0.2, 0.3, 0.5)
    # sha256 of the (scan_test, scan_test_over_pattern) statistics of the
    # 1200 draws, as computed by the recursive branch and bound that read
    # its masks from np.packbits, before the walk moved onto explicit frames
    SCAN_DIGEST = "ca6343d67a1af5f95f4574dffff81ba57d99bc2d6a4dbe57c0a86dd38f74b4e2"

    @classmethod
    def scan_draws(cls, count: int, seed: int = 2100):
        for k in range(count):
            rng = np.random.default_rng([seed, k])
            kind = cls.SCAN_KINDS[k % 4]
            sizes = cls.SCAN_SIZES[kind]
            pattern = make_family(f"{kind}:{sizes[int(rng.integers(len(sizes)))]}")
            n = int(rng.integers(max(6, pattern.n), 91))
            q = cls.SCAN_QS[int(rng.integers(len(cls.SCAN_QS)))]
            params = ModelParams(n=n, p=min(1.0, q + 0.4), q=q, pattern=pattern)
            if k % 2:
                obs = sample_planted(params, stream(seed, k))[0]
            else:
                obs = sample_null(n, q, stream(seed, k))
            yield params, obs

    def test_seeded_statistics_are_unchanged(self):
        stats, small = [], 0
        for params, obs in self.scan_draws(1200):
            got = (int(scan_test(obs, params).statistic),
                   int(scan_test_over_pattern(obs, params).statistic))
            if params.n <= 12:
                pattern, small = params.pattern, small + 1
                assert got == (brute_scan_statistic(obs.adjacency, densest_subgraph(pattern)),
                               brute_scan_statistic(obs.adjacency, pattern))
            stats.append(got)
        assert small == 120
        assert hashlib.sha256(repr(stats).encode()).hexdigest() == self.SCAN_DIGEST

    def test_kappa_weight_moves_threshold(self):
        params = ModelParams(n=6, p=0.8, q=0.2, pattern=TRIANGLE)
        obs = sample_null(6, 0.3, stream(605))
        lo = scan_test(obs, params, DetectorConfig(scan_kappa_weight=0.9))
        hi = scan_test(obs, params, DetectorConfig(scan_kappa_weight=0.1))
        # weight is on q, so weight 0.9 leans low and 0.1 leans high
        assert lo.threshold == pytest.approx((0.9 * 0.2 + 0.1 * 0.8) * 3)
        assert hi.threshold == pytest.approx((0.1 * 0.2 + 0.9 * 0.8) * 3)
        assert lo.threshold < hi.threshold

    @pytest.mark.parametrize("weight", [0, 1, 1.5, float("nan")])
    def test_kappa_weight_outside_open_unit_interval(self, weight):
        with pytest.raises(ValueError) as err:
            DetectorConfig(scan_kappa_weight=weight)
        assert str(err.value) == f"scan_kappa_weight must be in (0,1), got {weight}"


class TestScanRoutes:
    """The branch and bound against the copy enumeration it hands small
    targets to, and the route on either side of the copy bound."""

    @staticmethod
    def enumerated(obs, target):
        return int(_shared_edges(_subset_cells(target, obs.n), obs).max())

    def test_search_matches_the_enumeration_on_six_vertices(self):
        for mask in range(0, 1 << 15, 3):
            obs = mask_to_observation(mask, 6)
            assert _scan_statistic(obs, TRIANGLE) == self.enumerated(obs, TRIANGLE), mask

    @pytest.mark.parametrize(
        "spec", ["clique:4", "clique:5", "star:3", "path:3", "complete_bipartite:2,2"]
    )
    def test_search_matches_the_enumeration_on_small_hosts(self, spec):
        target = make_family(spec)
        for i, q in enumerate((0.05, 0.3, 0.7)):
            for k in range(10):
                n = target.n + k % (13 - target.n)
                obs = sample_null(n, q, stream(620, i, k))
                assert _scan_statistic(obs, target) == self.enumerated(obs, target), (q, k)

    # triangles at n = 15 and 16: 455 and 560 copies; star:3 at n = 9 and 10: 504 and 840
    @pytest.mark.parametrize("spec, n", [("clique:3", 15), ("clique:3", 16), ("star:3", 9), ("star:3", 10)])
    def test_routes_either_side_of_the_copy_bound(self, monkeypatch, spec, n):
        pattern = make_family(spec)
        copies = copies_in_complete(pattern, n)
        searched = []

        def search(obs, target):
            searched.append(target)
            return _scan_statistic(obs, target)

        monkeypatch.setattr(detectors, "_scan_statistic", search)
        params = ModelParams(n=n, p=0.9, q=0.3, pattern=pattern)
        draws = [sample_null(n, q, stream(621, k)) for k, q in enumerate((0.05, 0.3, 0.7))]
        for obs in draws:
            want = brute_scan_statistic(obs.adjacency, pattern)
            assert scan_test(obs, params).statistic == want
        enumerated = copies <= _SCAN_ENUMERATED_COPIES
        assert len(searched) == (0 if enumerated else len(draws))
        if enumerated:  # one work unit a copy
            monkeypatch.setattr(trace, "WORK_BUDGET", copies)
            scan_test(draws[0], params)
            monkeypatch.setattr(trace, "WORK_BUDGET", copies - 1)
            with pytest.raises(BudgetExceededError) as err:
                scan_test(draws[0], params)
            assert str(err.value) == f"scan: {copies} work units > budget {copies - 1}"

    def test_target_larger_than_the_observation_scores_zero(self):
        params = ModelParams(n=10, p=0.9, q=0.3, pattern=complete_graph(4))
        obs = Observation(~np.eye(3, dtype=bool))
        for scan in (scan_test, scan_test_over_pattern):
            verdict = scan(obs, params)
            assert (verdict.statistic, verdict.decision) == (0, 0)


class TestMonotonicity:
    def test_adding_edges_never_lowers_statistics(self):
        rng = np.random.default_rng(606)
        params = ModelParams(n=6, p=0.9, q=0.3, pattern=TRIANGLE)
        for _ in range(15):
            g = random_graph(rng, 6, 0.35)
            missing = [
                (u, v)
                for u, v in all_pairs(6)
                if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            u, v = missing[rng.integers(0, len(missing))]
            bigger = Graph(6, list(g.edges) + [(u, v)])
            obs_small = Observation.from_graph(g)
            obs_big = Observation.from_graph(bigger)
            for test in (count_test, degree_test, scan_test):
                assert (
                    test(obs_big, params).statistic
                    >= test(obs_small, params).statistic
                )


class TestLikelihoodRatioTest:
    def test_single_edge_closed_form(self):
        edge = Graph(2, [(0, 1)])
        params = ModelParams(n=2, p=0.8, q=0.25, pattern=edge)
        present = likelihood_ratio_test(Observation.from_graph(edge), params)
        absent = likelihood_ratio_test(Observation(np.zeros((2, 2), bool)), params)
        assert present.statistic == Fraction(0.8) / Fraction(0.25)
        assert absent.statistic == (1 - Fraction(0.8)) / (1 - Fraction(0.25))
        assert present.decision == 1 and absent.decision == 0

    def test_degenerate_plant_always_rejects_on_tie(self):
        params = ModelParams(n=5, p=0.4, q=0.4, pattern=TRIANGLE)
        for k in range(5):
            obs = sample_null(5, 0.5, stream(607, k))
            v = likelihood_ratio_test(obs, params)
            assert v.statistic == 1 and v.decision == 1

    def test_vertex_budget(self):
        # no vertex cap: the 220 triangles at n=12 are tallied
        params = ModelParams(n=12, p=0.9, q=0.1, pattern=TRIANGLE)
        obs = sample_null(12, 0.1, stream(608))
        p, q = Fraction(params.p), Fraction(params.q)
        want = Fraction(0)
        for triple in combinations(range(12), 3):
            e = sum(obs.has_edge(u, v) for u, v in combinations(triple, 2))
            want += (p / q) ** e * ((1 - p) / (1 - q)) ** (3 - e)
        assert likelihood_ratio_test(obs, params).statistic == want / 220
        # the tally's memory limits n: C(200, 3) triangles at 92 bytes each
        params = ModelParams(n=200, p=0.9, q=0.1, pattern=TRIANGLE)
        with pytest.raises(BudgetExceededError) as err:
            likelihood_ratio_test(sample_null(200, 0.1, stream(608)), params)
        assert str(err.value) == (
            f"copy-overlap tally: {92 * math.comb(200, 3)} bytes > budget 10000000"
        )

    @pytest.mark.parametrize("m", [4, 12])
    def test_observation_of_another_size(self, m):
        # it read the wrong pair bits: IndexError below n, a value above it
        params = ModelParams(n=10, p=0.9, q=0.1, pattern=TRIANGLE)
        obs = sample_null(m, 0.5, stream(615, m))
        with pytest.raises(ValueError) as err:
            likelihood_ratio_test(obs, params)
        assert str(err.value) == f"observation on {m} vertices, but the model has n=10"

    def test_more_than_eleven_pattern_vertices(self):
        # one copy, but its 66 pairs do not fit the uint64 pair masks
        params = ModelParams(n=12, p=0.9, q=0.1, pattern=complete_graph(12))
        obs = sample_null(12, 0.1, stream(611))
        with pytest.raises(PlantedLabError, match="at most 11 vertices") as err:
            likelihood_ratio_test(obs, params)
        assert not isinstance(err.value, BudgetExceededError)

    def test_copy_budget(self):
        # path with 9 edges in K_10: 10!/2 placements > 10^6
        params = ModelParams(n=10, p=0.9, q=0.1, pattern=make_family("path:9"))
        obs = sample_null(10, 0.1, stream(609))
        with pytest.raises(BudgetExceededError):
            likelihood_ratio_test(obs, params)

    def test_clique_9_in_10_closed_form(self):
        # 10 copies: one per 9-subset S, sharing e(S) edges with the observation
        params = ModelParams(n=10, p=0.75, q=0.25, pattern=complete_graph(9))
        obs = sample_null(10, 0.5, stream(610))
        p, q = Fraction(params.p), Fraction(params.q)
        want = Fraction(0)
        for dropped in range(10):
            kept = [v for v in range(10) if v != dropped]
            e = sum(obs.has_edge(u, v) for u, v in combinations(kept, 2))
            want += (p / q) ** e * ((1 - p) / (1 - q)) ** (36 - e)
        assert likelihood_ratio_test(obs, params).statistic == want / 10

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pq=st.sampled_from([(0.8, 0.25), (1.0, 0.5), (0.3, 0.3)]),
    )
    def test_matches_per_copy_sum(self, seed, pq):
        rng = np.random.default_rng(seed)
        pattern = random_pattern(rng, 5)
        n = int(rng.integers(pattern.n, 8))
        obs = Observation.from_graph(random_graph(rng, n, float(rng.random())))
        params = ModelParams(n=n, p=pq[0], q=pq[1], pattern=pattern)
        p, q = Fraction(params.p), Fraction(params.q)
        bit = {pair: i for i, pair in enumerate(all_pairs(n))}
        observed = sum(1 << bit[edge] for edge in obs.edges())
        masks = copy_masks(pattern, n)
        want = Fraction(0)
        for mask in masks:
            a = (mask & observed).bit_count()
            want += (p / q) ** a * ((1 - p) / (1 - q)) ** (pattern.num_edges - a)
        assert likelihood_ratio_test(obs, params).statistic == want / len(masks)

    def test_exact_risk_dominance_small(self):
        # n=5, triangle: compare against count/degree/scan over all 1024 graphs
        n, p, q = 5, Fraction(9, 10), Fraction(3, 10)
        null, planted = exact_distributions(TRIANGLE, n, p, q)
        params = ModelParams(n=n, p=float(p), q=float(q), pattern=TRIANGLE)
        decisions = {name: [] for name in ("lrt", "count", "degree", "scan")}
        for _, obs in all_observations(n):
            decisions["lrt"].append(likelihood_ratio_test(obs, params).decision)
            decisions["count"].append(count_test(obs, params).decision)
            decisions["degree"].append(degree_test(obs, params).decision)
            decisions["scan"].append(scan_test(obs, params).decision)
        risks = {
            name: exact_risk(dec, null, planted) for name, dec in decisions.items()
        }
        for name in ("count", "degree", "scan"):
            assert risks["lrt"] <= risks[name]

    def test_scan_on_densest_beats_scan_on_pattern(self):
        # K4 + pendant at n=5: exact risks over all 1024 observations
        n, p, q = 5, Fraction(9, 10), Fraction(2, 10)
        null, planted = exact_distributions(K4_PENDANT, n, p, q)
        params = ModelParams(n=n, p=float(p), q=float(q), pattern=K4_PENDANT)
        dec_densest, dec_full = [], []
        for _, obs in all_observations(n):
            dec_densest.append(scan_test(obs, params).decision)
            dec_full.append(scan_test_over_pattern(obs, params).decision)
        assert exact_risk(dec_densest, null, planted) <= exact_risk(
            dec_full, null, planted
        )
