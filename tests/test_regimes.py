"""Balanced decomposition, balance ratios, and regime classifiers."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from plantedlab import (
    AlphaOutOfRangeError,
    BudgetExceededError,
    Decomposition,
    DenseConstants,
    EmptyGraphError,
    Graph,
    GraphStats,
    MissingSigmaError,
    PolyFamilyExponents,
    Regime,
    TooFewEdgesError,
    balance_ratio_from_counts,
    classify_dense,
    complete_graph,
    critical_classify,
    g_mu,
    graph_stats,
    make_family,
    sparse_thresholds,
    superdense_threshold,
    unbalanced_stars_profile,
    vcd_balance_ratio,
    vcd_decompose,
    vertex_cover_number,
)

from plantedlab import trace

from oracles import random_graph, reference_vcd_parts, without_isolated

TRIANGLE = complete_graph(3)


def make_stats(v, e, d, mu):
    """Synthetic invariant record of v, e, d_max and mu."""
    return GraphStats(
        num_vertices=v,
        num_edges=e,
        max_degree=d,
        max_subgraph_density=Fraction(mu),
    )


class TestVcdDecompose:
    def test_single_part_is_whole_graph(self):
        g = make_family("unbalanced_stars:4")
        dec = vcd_decompose(g, 1)
        assert dec.M == 1
        assert set(dec.parts[0].edges) == set(g.edges)

    def test_star_collapses_into_first_part(self):
        g = make_family("star:5")
        dec = vcd_decompose(g, 3)
        assert set(dec.parts[0].edges) == set(g.edges)
        assert dec.parts[1].num_edges == 0
        assert dec.parts[2].num_edges == 0

    def test_triangle_two_parts(self):
        dec = vcd_decompose(TRIANGLE, 2)
        assert set(dec.parts[0].edges) == set(TRIANGLE.edges)
        assert dec.parts[1].num_edges == 0

    def test_matching_unit_degree(self):
        g = make_family("matching:3")
        dec = vcd_decompose(g, 2)
        assert set(dec.parts[0].edges) == set(g.edges)

    @pytest.mark.parametrize("num_parts", [1, 2, 3, 4])
    def test_partition_and_guarantees_random(self, num_parts):
        rng = np.random.default_rng(800 + num_parts)
        graphs = [random_graph(rng, 12, 0.4) for _ in range(12)]
        graphs.append(make_family("unbalanced_stars:16"))
        for g in graphs:
            if g.num_edges == 0:
                continue
            dec = vcd_decompose(g, num_parts)
            self._check_decomposition(g, dec, num_parts)

    def test_guarantees_unbalanced_stars_64(self):
        g = make_family("unbalanced_stars:64")
        for num_parts in (1, 2, 3):
            dec = vcd_decompose(g, num_parts)
            self._check_decomposition(g, dec, num_parts)

    @staticmethod
    def _check_decomposition(g, dec, num_parts):
        d = g.max_degree()
        # exact partition of the edge set
        all_edges = [e for part in dec.parts for e in part.edges]
        assert len(all_edges) == g.num_edges
        assert set(all_edges) == set(g.edges)
        # the first part holds the top-degree vertex's edges
        assert dec.parts[0].num_edges >= 1
        budget = 2 * g.num_edges * d ** (1 / num_parts)
        for i, part in enumerate(dec.parts, start=1):
            # per-window degree cap: d_max(part)^M <= d^(M-i+1), exactly
            assert part.max_degree() ** num_parts <= d ** (num_parts - i + 1)
            if part.num_edges == 0:
                continue
            trimmed = without_isolated(part)
            tau = vertex_cover_number(trimmed)
            assert tau * part.max_degree() <= budget * (1 + 1e-9), (
                f"part {i}: tau*d = {tau * part.max_degree()} "
                f"exceeds 2|e|d^(1/M) = {budget}"
            )

    def test_validation(self):
        with pytest.raises(EmptyGraphError):
            vcd_decompose(Graph(3, []), 2)
        with pytest.raises(ValueError):
            vcd_decompose(TRIANGLE, 0)

    def test_decomposition_invariants(self):
        with pytest.raises(ValueError):
            Decomposition(parts=(TRIANGLE, TRIANGLE))

    @staticmethod
    def two_stars(big, small):
        """A star of degree `big` beside one of degree `small`."""
        edges = [(0, v) for v in range(1, big + 1)]
        edges += [(big + 1, big + 1 + v) for v in range(1, small + 1)]
        return Graph(big + small + 2, edges)

    def test_equals_the_window_reference(self):
        # every family kind, exact ties d^M = d_max^k (4 and 16, 8 and 16, 2 and 8,
        # 3 and 27), and 200 seeded random graphs on 2-39 vertices
        specs = ("clique:6 path:6 star:6 complete_bipartite:6,6 regular_tree:3,3"
                 " matching:6 disjoint_triangles:4 unbalanced_stars:8").split()
        graphs = [make_family(s) for s in specs]
        ties = [self.two_stars(16, 4), self.two_stars(16, 8), self.two_stars(8, 2),
                self.two_stars(27, 3)]
        graphs += ties
        rng = np.random.default_rng(3600)
        while len(graphs) < len(specs) + len(ties) + 200:
            g = random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.02, 0.8)))
            if g.num_edges:
                graphs.append(g)
        for g in graphs:
            for num_parts in (*range(1, 11), 12, 16, 31, 100):
                assert vcd_decompose(g, num_parts).parts == reference_vcd_parts(g, num_parts)

    def test_float_estimate_corrected_upward(self):
        # 8^12 = 16^9, but the float estimate int(12 log 8 / log 16) reads 8: the
        # upward loop finds 9, so star:8 lands in part 3. The downward loop is kept as
        # the guard should the estimate ever overshoot; no case with d_max < 3000,
        # M < 60 and d near d_max^(j/M) was found that reaches it.
        g = self.two_stars(16, 8)
        assert int(12 * math.log(8) / math.log(16)) == 8 and 8**12 == 16**9
        parts = vcd_decompose(g, 12).parts
        assert parts == reference_vcd_parts(g, 12)
        assert [p.num_edges for p in parts] == [16, 0, 8] + [0] * 9

    def test_edgeless_parts_share_one_graph(self):
        # 10^5 parts of star:4: one built graph and 99 999 references to one empty one
        tracemalloc.start()
        try:
            parts = vcd_decompose(make_family("star:4"), 10**5).parts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # 16.9 MB when every part was its own graph
        assert parts[0].num_edges == 4
        assert len({id(p) for p in parts[1:]}) == 1 and parts[1] == Graph(5, [])

    def test_parts_and_edges_are_charged_before_they_are_built(self, monkeypatch):
        # star:4: 45 units a part, 40 an edge, and 5 for the power 1^M
        monkeypatch.setattr(trace, "WORK_BUDGET", 10_000)
        star = make_family("star:4")
        assert vcd_decompose(star, 218).M == 218  # 45 * 218 + 4 * 40 + 5 = 9975 units
        with pytest.raises(BudgetExceededError) as err:
            vcd_decompose(star, 219)
        assert str(err.value) == "decomposition: 10015 work units > budget 10000"

    def test_powers_are_charged_by_their_bit_length(self, monkeypatch):
        # degrees 3 and 2: the parts and edges fit, 2^M's ~M bits do not
        monkeypatch.setattr(trace, "WORK_BUDGET", 10_000)
        g = self.two_stars(3, 2)
        assert vcd_decompose(g, 100).M == 100
        with pytest.raises(BudgetExceededError) as err:
            vcd_decompose(g, 200)
        assert 45 * 200 + 40 * 5 <= 10_000 < err.value.spent
        assert str(err.value).startswith("decomposition: ")


class TestBalanceRatio:
    def test_star_is_balanced(self):
        assert vcd_balance_ratio(make_family("star:5")) == pytest.approx(1.0)

    def test_complete_graph(self):
        # tau = 3, d = 3, e = 6
        want = math.log(9) / math.log(6)
        assert vcd_balance_ratio(complete_graph(4)) == pytest.approx(want)

    def test_matches_count_form(self):
        got = balance_ratio_from_counts(3, 3, 6)
        assert got == vcd_balance_ratio(complete_graph(4))

    def test_too_few_edges(self):
        with pytest.raises(TooFewEdgesError):
            vcd_balance_ratio(Graph(2, [(0, 1)]))
        with pytest.raises(TooFewEdgesError):
            balance_ratio_from_counts(1, 1, 1)

    def test_unbalanced_stars_profile_ratio(self):
        edges, d, cover = unbalanced_stars_profile(10**6)
        ratio = balance_ratio_from_counts(cover, d, edges)
        assert abs(ratio - 1.4) < 0.02

    def test_profile_matches_small_graph(self):
        edges, d, cover = unbalanced_stars_profile(16)
        g = make_family("unbalanced_stars:16")
        assert edges == g.num_edges
        assert d == g.max_degree()
        assert cover == vertex_cover_number(g)


class TestClassifyDense:
    def test_scan_easy_from_probabilities(self):
        # mu = 5.5 beats (1.1 / KL(0.9, 0.2)) log 250 = 5.30
        stats = graph_stats(complete_graph(12))
        verdict = classify_dense(
            stats, 250, 3.0625, DenseConstants(p=0.9, q=0.2)
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "scan"
        assert verdict.margin > 0

    def test_hard_window_without_scan_guarantee(self):
        # same pattern but no scan constant: lands in the hard window
        stats = graph_stats(complete_graph(12))
        verdict = classify_dense(stats, 1000, 3.0625, DenseConstants())
        assert verdict.verdict is Regime.HARD
        assert verdict.binding_boundary == "edge-degree"

    def test_scan_easy_with_override(self):
        stats = make_stats(v=30, e=60, d=8, mu=4)
        verdict = classify_dense(
            stats, 1000, 1.0, DenseConstants(c_upper=0.5)
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "scan"

    def test_count_easy(self):
        stats = make_stats(v=5000, e=63_096, d=50, mu=Fraction(25, 2))
        verdict = classify_dense(stats, 10_000, 1.0)
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "count"
        assert verdict.margin == pytest.approx(
            math.log(63_096) / math.log(10_000) - 1.1
        )

    def test_degree_easy(self):
        stats = make_stats(v=250, e=300, d=200, mu=Fraction(5, 2))
        verdict = classify_dense(stats, 10_000, 1.0)
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "degree"

    def test_impossible_below_density_constant(self):
        stats = make_stats(v=30, e=45, d=6, mu=3)
        verdict = classify_dense(
            stats, 100, 1.0, DenseConstants(c_lower=1.0)
        )
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "density"

    def test_impossible_sublog(self):
        stats = make_stats(v=1000, e=1050, d=4, mu=Fraction(21, 20))
        verdict = classify_dense(stats, 10**6, 1.0)
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "edge-degree"

    def test_indeterminate_sublog_window(self):
        stats = make_stats(v=5000, e=6310, d=10, mu=Fraction(3, 2))
        verdict = classify_dense(stats, 10_000, 1.0)
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "edge-degree-window"

    def test_indeterminate_superlog_window(self):
        stats = make_stats(v=100, e=1000, d=30, mu=4)
        verdict = classify_dense(
            stats, 2000, 1.0, DenseConstants(c_lower=0.1)
        )
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "edge-degree-window"

    def test_validation(self):
        with pytest.raises(EmptyGraphError):
            classify_dense(make_stats(3, 0, 0, 0), 100, 1.0)
        with pytest.raises(ValueError):
            classify_dense(graph_stats(TRIANGLE), 3, 1.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), -3.0, 1.0, 1.5])
    def test_slack_outside_zero_one(self, epsilon):
        # NaN read as indeterminate with margin nan, -3 as easy with a negative margin
        with pytest.raises(ValueError) as err:
            DenseConstants(epsilon=epsilon)
        assert str(err.value) == f"epsilon must lie in [0,1), got {epsilon}"

    @pytest.mark.parametrize("lambda_sq", [-0.5, -1.0, float("nan")])
    def test_negative_lambda_sq(self, lambda_sq):
        # -1/2 read as impossible by density, -1 failed in log1p
        with pytest.raises(ValueError) as err:
            classify_dense(graph_stats(TRIANGLE), 1000, lambda_sq)
        assert str(err.value) == f"lambda_sq must be >= 0, got {lambda_sq}"


class TestSparseThresholds:
    def test_known_exponents(self):
        exp = PolyFamilyExponents(alpha=1, epsilon=2, delta=1, zeta=1)
        lo, hi, comp = sparse_thresholds(exp)
        assert lo == pytest.approx(2 / 3)
        assert hi == pytest.approx(3 / 4)
        assert comp == pytest.approx(3 / 4)

    def test_zero_zeta_collapses_gap(self):
        exp = PolyFamilyExponents(alpha=1, epsilon=2, delta=1, zeta=0)
        lo, hi, comp = sparse_thresholds(exp)
        assert lo == hi == comp

    def test_ordering_properties(self):
        rng = np.random.default_rng(801)
        for _ in range(200):
            alpha = float(rng.uniform(0, 2))
            zeta = float(rng.uniform(0, 1))
            delta = float(rng.uniform(zeta, 1))
            eps = float(rng.uniform(1, 2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                exp = PolyFamilyExponents(alpha, eps, delta, zeta)
            lo, hi, comp = sparse_thresholds(exp)
            assert lo <= hi + 1e-12
            assert lo <= comp + 1e-12

    def test_computational_gap_can_exceed_stat_upper(self):
        # the hard region: detection possible below comp_lower yet above
        # stat_upper, so no ordering between those two is asserted
        exp = PolyFamilyExponents(alpha=0.5, epsilon=2, delta=1, zeta=1)
        lo, hi, comp = sparse_thresholds(exp)
        assert hi == pytest.approx(0.5)
        assert comp == pytest.approx(0.625)
        assert comp > hi

    def test_shape_warning(self):
        with pytest.warns(UserWarning):
            PolyFamilyExponents(alpha=1, epsilon=2, delta=0.5, zeta=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PolyFamilyExponents(alpha=1, epsilon=2, delta=1, zeta=1)

    @pytest.mark.parametrize("name", ["epsilon", "delta", "zeta"])
    def test_nan_exponent(self, name):
        # refused by name before the ordering check, which NaN fails with a warning
        exponents = dict(alpha=1, epsilon=2, delta=1, zeta=1) | {name: float("nan")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                PolyFamilyExponents(**exponents)
        assert str(err.value) == f"{name} must be a number, got nan"

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            PolyFamilyExponents(alpha=-0.1, epsilon=2, delta=1, zeta=1)
        with pytest.raises(ValueError):
            PolyFamilyExponents(alpha=2.5, epsilon=2, delta=1, zeta=1)


class TestSuperdenseThreshold:
    def test_known_values(self):
        assert superdense_threshold(1) == pytest.approx(3 / 4)
        assert superdense_threshold(2 / 3) == pytest.approx(2 / 3)
        assert superdense_threshold(0.1) == pytest.approx(0.1)
        assert superdense_threshold(2) == pytest.approx(1.0)

    def test_kink_at_two_thirds(self):
        # below 2/3 the identity branch binds; above, the affine one
        assert superdense_threshold(0.5) == pytest.approx(0.5)
        assert superdense_threshold(0.8) == pytest.approx(0.7)

    def test_domain(self):
        with pytest.raises(ValueError):
            superdense_threshold(0)
        with pytest.raises(ValueError):
            superdense_threshold(2.5)


class TestGMu:
    def test_known_values(self):
        assert g_mu(0.5, 0.5) == pytest.approx(0.75)
        assert g_mu(1.0, 0.5) == pytest.approx(0.5)
        assert g_mu(1.5, 0.5) == pytest.approx(0.25)

    def test_continuous_at_one(self):
        for mu in (0.3, 0.5, 0.7, 0.9):
            left = g_mu(1 - 1e-12, mu)
            right = g_mu(1 + 1e-12, mu)
            assert abs(left - right) < 1e-9

    def test_vanishes_at_upper_end(self):
        assert g_mu(2 - 1e-9, 0.5) < 1e-8

    def test_domain(self):
        assert g_mu(0.0, 0.5) == 1.0  # left endpoint is included
        with pytest.raises(ValueError):
            g_mu(0.5, 0.0)
        with pytest.raises(ValueError):
            g_mu(0.5, 1.0)
        with pytest.raises(AlphaOutOfRangeError):
            g_mu(-0.1, 0.5)
        with pytest.raises(AlphaOutOfRangeError):
            g_mu(2.0, 0.5)
        with pytest.raises(AlphaOutOfRangeError):
            g_mu(2.5, 0.5)

    def test_nan_alpha(self):
        # returned nan
        with pytest.raises(AlphaOutOfRangeError) as err:
            g_mu(float("nan"), 0.5)
        assert str(err.value) == "alpha must lie in [0, 1/mu) = [0, 2), got nan"


class TestCriticalClassify:
    def test_trivial_scan(self):
        verdict = critical_classify(make_stats(10, 20, 5, 3), 1000, 0.5)
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "trivial-scan"
        assert verdict.margin == pytest.approx(0.5)

    def test_bounded_density_impossible(self):
        verdict = critical_classify(make_stats(100, 100, 10, 1), 10**6, 0.5)
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "bounded-density"

    def test_bounded_density_count_easy(self):
        verdict = critical_classify(
            make_stats(600, 700, 5, Fraction(7, 6)), 10, 0.5
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "count"

    def test_bounded_density_degree_easy(self):
        verdict = critical_classify(
            make_stats(250, 300, 15, Fraction(6, 5)), 10, 0.5
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "degree"

    def test_bounded_density_window(self):
        verdict = critical_classify(make_stats(100, 100, 8, 1), 1000, 0.5)
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "bounded-density-window"

    def test_subcritical_count_easy(self):
        # |e| = n^0.9 at alpha = 1/2 clears the n^(1-alpha/2) boundary
        verdict = critical_classify(
            make_stats(4000, 3981, 5, Fraction(3981, 4000)), 10_000, 0.5
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "count"
        assert verdict.margin == pytest.approx(
            math.log(3981) / math.log(10_000) - 0.75
        )

    def test_subcritical_degree_easy(self):
        verdict = critical_classify(
            make_stats(120, 100, 30, Fraction(5, 6)), 10_000, 0.5
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "degree"

    def test_subcritical_impossible(self):
        verdict = critical_classify(
            make_stats(120, 100, 3, Fraction(5, 6)), 10_000, 0.5
        )
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "count-degree"

    def test_subcritical_window(self):
        verdict = critical_classify(
            make_stats(700, 631, 3, Fraction(631, 700)), 10_000, 0.5
        )
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "count-degree-window"

    def test_n_one_rejected(self):
        with pytest.raises(ValueError):
            critical_classify(make_stats(3, 3, 2, 1), 1, 0.5)

    def test_critical_needs_sigma(self):
        with pytest.raises(MissingSigmaError):
            critical_classify(make_stats(30, 25, 3, Fraction(5, 6)), 2000, 1)

    def test_critical_count_easy(self):
        verdict = critical_classify(
            make_stats(301, 300, 5, Fraction(300, 301)), 10_000, 1, sigma=2
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "count"

    def test_critical_degree_easy(self):
        verdict = critical_classify(
            make_stats(250, 200, 150, Fraction(4, 5)), 10_000, 1, sigma=2
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "degree"

    def test_critical_scan_easy_explicit_beta(self):
        verdict = critical_classify(
            make_stats(300, 294, 10, Fraction(49, 50)),
            10**6,
            1,
            sigma=2,
            beta_degree=0.65,
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "scan"

    def test_critical_scan_easy_measured_beta(self):
        # 1 - mu = 1/v caps the measured growth exponent at 1
        verdict = critical_classify(
            make_stats(600, 250, 10, Fraction(599, 600)), 10**6, 1, sigma=2
        )
        assert verdict.verdict is Regime.EASY
        assert verdict.binding_boundary == "scan"

    def test_critical_polynomial_degree_impossible(self):
        verdict = critical_classify(
            make_stats(25, 20, 3, Fraction(4, 5)),
            2000,
            1,
            sigma=2,
            beta_degree=1.0,
        )
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "polynomial-degree"

    def test_critical_polynomial_degree_measured_beta(self):
        # beta = log d / log v, so d^(1/beta) log d = v log d = 10 log 3
        n = 10**12
        verdict = critical_classify(make_stats(10, 9, 3, Fraction(9, 10)), n, 1, sigma=1)
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "polynomial-degree"
        assert verdict.margin == pytest.approx(0.45 * math.log(n) - 10 * math.log(3))

    def test_critical_bounded_sigma_large(self):
        # sigma above 2e d^2 while the degree grows too fast for the
        # polynomial-degree route
        verdict = critical_classify(
            make_stats(25, 20, 3, Fraction(4, 5)),
            2000,
            1,
            sigma=50,
            beta_degree=0.5,
        )
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "bounded-sigma-large"

    def test_critical_bounded_sigma_small(self):
        verdict = critical_classify(
            make_stats(25, 20, 3, Fraction(4, 5)),
            2000,
            1,
            sigma=0.5,
            beta_degree=0.5,
        )
        assert verdict.verdict is Regime.IMPOSSIBLE
        assert verdict.binding_boundary == "bounded-sigma-small"

    def test_critical_window(self):
        verdict = critical_classify(
            make_stats(30, 25, 3, Fraction(5, 6)),
            2000,
            1,
            sigma=2,
            beta_degree=0.5,
        )
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "critical-window"

    def test_uncovered_alpha_mu(self):
        verdict = critical_classify(
            make_stats(100, 40, 3, Fraction(1, 2)), 1000, 1.5
        )
        assert verdict.verdict is Regime.INDETERMINATE
        assert verdict.binding_boundary == "uncovered-alpha-mu"

    def test_domain(self):
        stats = make_stats(10, 10, 3, 1)
        for alpha in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(AlphaOutOfRangeError):
                critical_classify(stats, 1000, alpha)
        with pytest.raises(EmptyGraphError):
            critical_classify(make_stats(5, 0, 0, 0), 1000, 0.5)

    @pytest.mark.parametrize("epsilon", [float("nan"), -0.5, 1.0])
    def test_slack_outside_zero_one(self, epsilon):
        with pytest.raises(ValueError) as err:
            critical_classify(make_stats(10, 10, 3, 1), 1000, 0.5, epsilon=epsilon)
        assert str(err.value) == f"epsilon must lie in [0,1), got {epsilon}"
