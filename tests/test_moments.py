"""Second-moment computations, low-degree norms, and risk lower bounds."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from plantedlab import (
    BudgetExceededError,
    DegenerateQError,
    Graph,
    InvalidMomentError,
    LdpConfig,
    ModelParams,
    MomentParams,
    MomentResult,
    PatternTooLargeError,
    chi_square_bernoulli,
    complete_graph,
    intersection_distribution,
    ldp_norm_sq,
    make_family,
    risk_lower_bounds,
    second_moment_exact,
    second_moment_mc,
    second_moment_pair_enum,
    stream,
)

from plantedlab import moments, trace
from plantedlab.invariants import isomorphic
from plantedlab.moments import _shared_edge_counts, _subset_moments
from plantedlab.regimes import _kl_bernoulli

from oracles import (
    brute_intersection_law,
    brute_second_moment,
    hypergeom_pmf,
    random_pattern,
)

TRIANGLE = complete_graph(3)
EDGE = Graph(2, [(0, 1)])


class TestChiSquare:
    def test_known_values(self):
        assert chi_square_bernoulli(0.5, 0.5) == 0
        assert chi_square_bernoulli(1.0, 0.5) == 1
        assert chi_square_bernoulli(0.5, 0.25) == pytest.approx(1 / 3)

    def test_fraction_inputs_stay_exact(self):
        got = chi_square_bernoulli(Fraction(3, 4), Fraction(1, 4))
        assert got == Fraction(4, 3)
        assert isinstance(got, Fraction)

    def test_degenerate_q(self):
        with pytest.raises(DegenerateQError):
            chi_square_bernoulli(0.5, 0.0)
        with pytest.raises(DegenerateQError):
            chi_square_bernoulli(0.5, 1.0)
        with pytest.raises(ValueError):
            chi_square_bernoulli(1.5, 0.5)


class TestMomentParams:
    def test_from_probabilities(self):
        mp = MomentParams.from_probabilities(
            6, Fraction(3, 4), Fraction(1, 4), TRIANGLE
        )
        assert mp.lambda_sq == Fraction(4, 3)
        assert mp.n == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentParams(0, 1, TRIANGLE)
        with pytest.raises(ValueError):
            MomentParams(6, -1, TRIANGLE)
        with pytest.raises(PatternTooLargeError):
            MomentParams(2, 1, TRIANGLE)
        with pytest.raises(ValueError):
            MomentParams(6, 1, Graph(3, [(0, 1)]))  # isolated vertex

    def test_nan_lambda_sq_rejected(self):
        # NaN passed `lambda_sq < 0`: the exact form then failed naming no input
        with pytest.raises(ValueError) as err:
            MomentParams(10, float("nan"), TRIANGLE)
        assert str(err.value) == "lambda_sq must be >= 0, got nan"
        assert MomentParams(10, math.inf, TRIANGLE).lambda_sq == math.inf

    def test_result_below_one_rejected(self):
        with pytest.raises(InvalidMomentError):
            MomentResult(value=0.5, method="exact_subgraph_sum")

    def test_nan_result_rejected(self):
        with pytest.raises(InvalidMomentError) as err:
            MomentResult(value=float("nan"), method="monte_carlo", std_error=math.inf)
        assert str(err.value) == "second moment of a unit-mean likelihood is >= 1, got nan"


class TestSharedChecks:
    """Both records of an instance, and both Bernoulli divergences, answer
    each bad input with the same error class and message."""

    @staticmethod
    def raised(*calls):
        out = []
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            out.append((type(info.value), str(info.value)))
        return out

    @pytest.mark.parametrize("n, pattern", [
        (0, TRIANGLE),
        (-2, EDGE),
        (6, Graph(3, [(0, 1)])),  # an isolated vertex
        (6, Graph(0, [])),
        (2, TRIANGLE),  # does not fit
    ])
    def test_instance_records(self, n, pattern):
        model, moment = self.raised(
            lambda: ModelParams(n, 0.9, 0.3, pattern), lambda: MomentParams(n, 1, pattern)
        )
        assert model == moment

    @pytest.mark.parametrize("p, q", [
        (0.5, 0.0), (0.5, 1.0), (0.5, -0.5), (0.5, 1.5), (0.5, math.nan),
        (-0.5, 0.5), (1.5, 0.5), (math.nan, 0.5),
    ])
    def test_bernoulli_divergences(self, p, q):
        chi2, kl = self.raised(lambda: chi_square_bernoulli(p, q), lambda: _kl_bernoulli(p, q))
        assert chi2 == kl
        assert chi2[0] is (DegenerateQError if not 0 < q < 1 else ValueError)


class TestSecondMomentExact:
    def test_zero_signal(self):
        res = second_moment_exact(MomentParams(6, 0, TRIANGLE))
        assert res.value == 1

    def test_single_edge(self):
        # one planted edge among C(3,2)=3 pairs: E[L^2] = 1 + lambda^2/3
        res = second_moment_exact(MomentParams(3, Fraction(1, 2), EDGE))
        assert res.value == 1 + Fraction(1, 2) / 3

    @pytest.mark.parametrize("lam_sq", [Fraction(1, 2), 1, 3])
    def test_triangle_matches_hypergeometric_form(self, lam_sq):
        # two triangle copies sharing h vertices share C(h,2) edges, and h
        # is hypergeometric, so E[L^2] = sum_h pmf(h) (1+lambda^2)^C(h,2)
        res = second_moment_exact(MomentParams(6, lam_sq, TRIANGLE))
        pmf = hypergeom_pmf(6, 3, 3)
        want = sum(w * (1 + Fraction(lam_sq)) ** math.comb(h, 2)
                   for h, w in pmf.items())
        assert res.value == want

    @pytest.mark.parametrize(
        "pattern,n",
        [
            (EDGE, 3),
            (EDGE, 4),
            (make_family("path:2"), 4),
            (TRIANGLE, 5),
        ],
    )
    def test_matches_first_principles_sum(self, pattern, n):
        # oracle sums P1^2/P0 over every observation; both sides are exact
        p, q = Fraction(3, 4), Fraction(1, 4)
        want = brute_second_moment(pattern, n, p, q)
        mp = MomentParams.from_probabilities(n, p, q, pattern)
        assert second_moment_exact(mp).value == want

    def test_agrees_with_pair_enumeration(self):
        for pattern, n in [
            (TRIANGLE, 6),
            (make_family("star:3"), 7),
            (make_family("matching:2"), 6),
        ]:
            for lam_sq in (Fraction(1, 2), 2):
                mp = MomentParams(n, lam_sq, pattern)
                a = second_moment_exact(mp)
                b = second_moment_pair_enum(mp)
                assert a.value == b.value
                assert a.method == "exact_subgraph_sum"
                assert b.method == "exact_intersection_mgf"

    def test_pair_enumeration_clique_7_in_8(self):
        mp = MomentParams(8, Fraction(1, 2), complete_graph(7))
        assert second_moment_pair_enum(mp).value == second_moment_exact(mp).value

    def test_pair_enum_budget(self):
        # 10!/2 copies of a 9-edge path in K_10, 9 bytes each, past the cap
        with pytest.raises(BudgetExceededError) as err:
            second_moment_pair_enum(MomentParams(10, 1, make_family("path:9")))
        assert f"{9 * 1814400 + 8 * 10 + 17 * 45 + 8} bytes > budget 10000000" in str(
            err.value
        )


class TestSharedEdgeLaw:
    @staticmethod
    def law(pattern, n):
        counts = _shared_edge_counts(pattern, n, math.inf)
        total = math.perm(n, pattern.n)
        assert sum(counts) == total
        return [Fraction(c, total) for c in counts]

    def test_matches_brute_law_on_random_patterns(self):
        rng = np.random.default_rng(710)
        for _ in range(30):
            pattern = random_pattern(rng, 5)
            n = int(rng.integers(pattern.n, 8))
            assert self.law(pattern, n) == brute_intersection_law(pattern, n)

    @pytest.mark.parametrize(
        "spec,n",
        [
            ("clique:4", 6),
            ("star:4", 7),
            ("complete_bipartite:2,3", 7),
            ("matching:3", 7),
            ("disjoint_triangles:2", 7),
        ],
    )
    def test_matches_brute_law_on_twin_families(self, spec, n):
        pattern = make_family(spec)
        assert self.law(pattern, n) == brute_intersection_law(pattern, n)

    def test_matches_brute_law_on_identical_components(self):
        two_cherries = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        cherry_and_matching = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        for pattern in (two_cherries, cherry_and_matching):
            assert self.law(pattern, 7) == brute_intersection_law(pattern, 7)

    @pytest.mark.parametrize(
        "spec,n",
        [("clique:9", 20), ("star:12", 30), ("matching:10", 30), ("disjoint_triangles:4", 20)],
    )
    def test_saturated_ldp_is_second_moment_beyond_subset_range(self, spec, n):
        mp = MomentParams(n, Fraction(1, 2), make_family(spec))
        full = LdpConfig(degree=mp.pattern.num_edges)
        assert ldp_norm_sq(mp, full).value == second_moment_exact(mp).value

    @pytest.mark.parametrize(
        "spec,n", [("path:4", 7), ("star:3", 8), ("clique:4", 9), ("matching:3", 8)]
    )
    def test_counts_and_edge_subsets_agree_at_every_degree(self, spec, n):
        pattern = make_family(spec)
        counts = _shared_edge_counts(pattern, n, math.inf)
        total = math.perm(n, pattern.n)
        e = pattern.num_edges
        from_counts = [
            Fraction(sum(c * math.comb(j, d) for j, c in enumerate(counts)), total)
            for d in range(e + 1)
        ]
        assert _subset_moments(pattern, n, e) == from_counts

    def test_low_degree_on_a_large_clique(self):
        mp = MomentParams(30, Fraction(1, 2), make_family("clique:20"))
        values = [ldp_norm_sq(mp, LdpConfig(degree=d)).value for d in range(3)]
        assert values == [1, Fraction(3697, 87), Fraction(77699, 84)]

    @pytest.mark.parametrize(
        "spec,n,degree,value",
        [
            ("path:9", 20, 9, Fraction(211484671080289, 171633298636800)),
            ("path:10", 20, 10, Fraction(4438736351284681, 3432665972736000)),
            ("path:40", 50, 3, Fraction(804910483, 423752000)),
            ("matching:30", 70, 0, Fraction(1)),
        ],
    )
    def test_edge_subsets_cover_what_the_counts_cannot(self, spec, n, degree, value):
        mp = MomentParams(n, Fraction(1, 2), make_family(spec))
        assert ldp_norm_sq(mp, LdpConfig(degree=degree)).value == value

    def test_path_twelve_at_thirty(self):
        mp = MomentParams(30, Fraction(1, 2), make_family("path:12"))
        expected = Fraction(199852585119278581393, 169698890400399360000)
        assert second_moment_exact(mp).value == expected

    def test_path_twelve_at_thirty_inside_twenty_million_units(self, monkeypatch):
        monkeypatch.setattr(trace, "WORK_BUDGET", 20_000_000)
        mp = MomentParams(30, Fraction(1, 2), make_family("path:12"))
        expected = Fraction(199852585119278581393, 169698890400399360000)
        assert second_moment_exact(mp).value == expected

    def test_path_fourteen_at_thirty(self):
        mp = MomentParams(30, Fraction(1, 2), make_family("path:14"))
        full = LdpConfig(degree=mp.pattern.num_edges)
        # also the value the shared-edge count gives when it runs to the end
        expected = Fraction(691566995610980763924203, 553897178266903511040000)
        assert second_moment_exact(mp).value == expected
        assert ldp_norm_sq(mp, full).value == expected

    def test_float_signal_rounds_the_exact_value(self):
        routes = ((second_moment_exact,), (second_moment_pair_enum,), (ldp_norm_sq, LdpConfig(2)))
        for n in (7, 8):
            exact = MomentParams(n, Fraction(1, 2), TRIANGLE)
            approx = MomentParams(n, 0.5, TRIANGLE)
            for moment, *args in routes:
                value = moment(approx, *args).value
                assert type(value) is float
                assert value == float(moment(exact, *args).value)

    def test_float_signal_past_the_float_range_reads_inf(self):
        # the exact value is about 2 * 10^2330, past the float range
        mp = MomentParams(50, 1000.0, make_family("clique:40"))
        assert second_moment_exact(mp).value == math.inf
        assert ldp_norm_sq(mp, LdpConfig(degree=780)).value == math.inf
        # an infinite signal: every E[C(I, d)] is positive, and D = 0 gives 1
        mp = MomentParams(8, math.inf, TRIANGLE)
        assert second_moment_exact(mp).value == math.inf
        assert second_moment_pair_enum(mp).value == math.inf
        assert ldp_norm_sq(mp, LdpConfig(degree=1)).value == math.inf
        assert ldp_norm_sq(mp, LdpConfig(degree=0)).value == 1

    def test_budget_error_states_spent_and_limits(self, monkeypatch):
        # the 2^30 subsets cost more than the meter holds, so the count runs
        # until the meter raises
        charges = []

        def spy(what, units):
            charges.append(units)
            trace.spend(what, units)

        monkeypatch.setattr(moments, "spend", spy)
        mp = MomentParams(40, 1, make_family("path:30"))
        with pytest.raises(BudgetExceededError) as err:
            second_moment_exact(mp)
        message = str(err.value)
        assert message.startswith("shared-edge count: ")
        assert f" work units > budget {trace.WORK_BUDGET}" in message
        assert err.value.limit == trace.WORK_BUDGET
        assert trace.WORK_BUDGET < err.value.spent <= trace.WORK_BUDGET + max(charges)

    def test_subsets_fit_in_what_the_count_leaves(self, monkeypatch):
        # the 1,091,059 subsets of at most 4 edges cost 27,276,475 units, more
        # than half the budget; the count gives up in time for them to run
        charges = Counter()

        def spy(what, units):
            charges[what] += units
            trace.spend(what, units)

        monkeypatch.setattr(moments, "spend", spy)
        mp = MomentParams(80, Fraction(1, 2), make_family("path:72"))
        value = ldp_norm_sq(mp, LdpConfig(degree=4)).value
        assert value == Fraction(1171290973211519, 519456665728000)
        price = 25 * sum(math.comb(72, d) for d in range(5))
        assert charges["edge subsets, after the shared-edge count ran out"] == price
        assert 0 < charges["shared-edge count"] <= trace.WORK_BUDGET - price

    def test_identical_components_are_merged(self, monkeypatch):
        # with the five triangles put in order (`_component_sorter`) the count
        # finishes on ~180k units; unsorted, it gives up at the subset price
        # of 2^15 subsets and the subset route runs instead
        charges = Counter()

        def spy(what, units):
            charges[what] += units
            trace.spend(what, units)

        monkeypatch.setattr(moments, "spend", spy)
        mp = MomentParams(20, Fraction(1, 2), make_family("disjoint_triangles:5"))
        assert second_moment_exact(mp).value == Fraction(60335016512787, 33902873804800)
        assert set(charges) == {"shared-edge count"}


class TestSubsetRoute:
    def test_class_tallies_give_the_brute_binomial_moments(self, monkeypatch):
        # a class of w subsets isomorphic to H adds w^2 / N(H, K_n), which
        # holds only if `isomorphic` merged every such subset into it
        merges = []

        def spy(a, b):
            same = isomorphic(a, b)
            merges.append(same)
            return same

        monkeypatch.setattr(moments, "isomorphic", spy)
        rng = np.random.default_rng(1313)
        for _ in range(30):
            pattern = random_pattern(rng, 6)
            n = pattern.n + int(rng.integers(0, 3))
            e = pattern.num_edges
            law = brute_intersection_law(pattern, n)
            want = [sum(pr * math.comb(j, d) for j, pr in enumerate(law)) for d in range(e + 1)]
            assert _subset_moments(pattern, n, e) == want
        assert any(merges)


class TestExactFormsOnRandomPatterns:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_match_the_brute_intersection_law(self, seed):
        # ||L^{<=D}||^2 = sum over d <= D of lambda^(2d) E[C(I, d)] at every
        # D <= |e|, and E[L^2] is the value at D = |e|
        rng = np.random.default_rng(seed)
        pattern = random_pattern(rng, 6)
        n = int(rng.integers(pattern.n, 9))
        lambda_sq = Fraction(1, 2)
        mp = MomentParams(n, lambda_sq, pattern)
        law = brute_intersection_law(pattern, n)
        want = Fraction(0)
        for degree in range(pattern.num_edges + 1):
            want += lambda_sq**degree * sum(
                pr * math.comb(j, degree) for j, pr in enumerate(law)
            )
            assert ldp_norm_sq(mp, LdpConfig(degree=degree)).value == want
        assert second_moment_exact(mp).value == want


class TestLdpNormSq:
    def test_degree_zero_is_one(self):
        mp = MomentParams(8, 3, TRIANGLE)
        assert ldp_norm_sq(mp, LdpConfig(degree=0)).value == 1

    def test_degree_zero_spends_nothing(self, monkeypatch):
        monkeypatch.setattr(trace, "WORK_BUDGET", 0)
        for lambda_sq, want in ((Fraction(1, 2), Fraction(1)), (0.5, 1.0)):
            mp = MomentParams(70, lambda_sq, make_family("matching:30"))
            value = ldp_norm_sq(mp, LdpConfig(degree=0)).value
            assert value == want and type(value) is type(want)

    def test_degree_one_closed_form(self):
        mp = MomentParams(6, 1, TRIANGLE)
        got = ldp_norm_sq(mp, LdpConfig(degree=1)).value
        assert got == 1 + Fraction(3 * 3, math.comb(6, 2))

    def test_monotone_and_saturates(self):
        pattern = make_family("path:3")
        mp = MomentParams(7, Fraction(2, 3), pattern)
        exact = second_moment_exact(mp).value
        prev = Fraction(0)
        for deg in range(pattern.num_edges + 2):
            cur = ldp_norm_sq(mp, LdpConfig(degree=deg)).value
            assert prev <= cur <= exact
            prev = cur
        assert prev == exact

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            LdpConfig(degree=-1)


def pooled(observed, expected, least=5):
    """(observed, expected) with each cell expected below `least` merged into
    the next one, and a small last cell into the one before it."""
    cells = []
    for o, e in zip(observed, expected):
        if cells and cells[-1][1] < least:
            cells[-1] = (cells[-1][0] + o, cells[-1][1] + e)
        else:
            cells.append((o, e))
    if len(cells) > 1 and cells[-1][1] < least:
        o, e = cells.pop()
        cells[-1] = (cells[-1][0] + o, cells[-1][1] + e)
    return [o for o, _ in cells], [e for _, e in cells]


MC_REFERENCES = [("clique:3", 7), ("star:3", 8), ("path:3", 9), ("matching:2", 9)]

# (spec, n, trials, seed, counts, E[L^2] and its standard error at
# lambda^2 = 3): the counts are those of 65536-row chunks, so clique:3 at
# n=200 spans two of those; path:4 at n=200 and clique:20 at n=1000 span
# several chunks of MC_CHUNK_BYTES
MC_PINS = [
    ("clique:3", 200, 70_000, 2, {0: 69976, 1: 24}, 1.0010285714285714, 2.09921767525737e-4),
    ("star:3", 8, 20_000, 3, {0: 14661, 1: 4482, 2: 773, 3: 84}, 2.51665, 0.03541466996623632),
    ("path:4", 200, 20_000, 9, {0: 19980, 1: 20}, 1.003, 6.70501661909895e-4),
    ("clique:20", 1000, 5_000, 12, {0: 4703, 1: 275, 3: 20, 6: 1, 10: 1}, 211.951,
     209.7163593656845),
]


class TestSecondMomentMC:
    def test_zero_signal_exact(self):
        rng = np.random.default_rng(700)
        res = second_moment_mc(MomentParams(8, 0, TRIANGLE), 500, rng)
        assert res.value == 1.0
        assert res.std_error == 0.0
        assert res.method == "monte_carlo"

    @pytest.mark.parametrize("lam_sq", [1, 3])
    def test_within_standard_error_of_exact(self, lam_sq):
        mp = MomentParams(6, lam_sq, TRIANGLE)
        exact = float(second_moment_exact(mp).value)
        rng = np.random.default_rng(701 + lam_sq)
        res = second_moment_mc(mp, 40_000, rng)
        assert res.std_error > 0
        assert abs(res.value - exact) < 4 * res.std_error, (
            f"MC estimate {res.value} off exact {exact} by more than 4 SE"
        )

    @pytest.mark.parametrize("spec,n", MC_REFERENCES)
    def test_within_four_standard_errors_on_small_families(self, spec, n):
        mp = MomentParams(n, 1, make_family(spec))
        exact = float(second_moment_exact(mp).value)
        res = second_moment_mc(mp, 20_000, stream(721, n))
        assert res.std_error > 0
        assert abs(res.value - exact) < 4 * res.std_error

    @pytest.mark.parametrize("spec,n,trials,seed,counts,value,std_error", MC_PINS)
    def test_pinned_seeded_values(self, spec, n, trials, seed, counts, value, std_error):
        pattern = make_family(spec)
        hist = intersection_distribution(pattern, n, trials, np.random.default_rng(seed))
        assert hist.counts == counts
        res = second_moment_mc(MomentParams(n, 3, pattern), trials, np.random.default_rng(seed))
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.std_error == pytest.approx(std_error, rel=1e-12)

    def test_powers_past_the_float_range(self):
        # clique:46 has 1035 edges and 2^1035 is past the float range; only
        # drawn bins are raised to their power, and a drawn one past it reads inf
        pattern = make_family("clique:46")
        res = second_moment_mc(MomentParams(1000, 1, pattern), 300, np.random.default_rng(5))
        assert res.value == pytest.approx(7391.826666666667, rel=1e-12)
        assert res.std_error == pytest.approx(6991.710377394868, rel=1e-12)
        full = second_moment_mc(MomentParams(46, 1, pattern), 20, np.random.default_rng(8))
        assert full.value == full.std_error == math.inf

    def test_chunk_size_moves_nothing(self, monkeypatch):
        mp = MomentParams(30, 3, make_family("path:4"))
        whole = second_moment_mc(mp, 5000, np.random.default_rng(708))
        monkeypatch.setattr(moments, "MC_CHUNK_BYTES", 16 * 30 * 7)  # 7 trials a chunk
        chunked = second_moment_mc(mp, 5000, np.random.default_rng(708))
        assert (chunked.value, chunked.std_error) == (whole.value, whole.std_error)

    def test_deterministic_under_seed(self):
        mp = MomentParams(7, 2, make_family("star:3"))
        a = second_moment_mc(mp, 2000, np.random.default_rng(702))
        b = second_moment_mc(mp, 2000, np.random.default_rng(702))
        assert a.value == b.value and a.std_error == b.std_error

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            second_moment_mc(MomentParams(6, 1, TRIANGLE), 0,
                             np.random.default_rng(703))


class TestIntersectionDistribution:
    def test_unique_copy_is_degenerate(self):
        rng = np.random.default_rng(704)
        hist = intersection_distribution(complete_graph(4), 4, 50, rng)
        assert hist.counts == {6: 50}
        assert hist.probabilities() == {6: 1.0}

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices(self, n):
        # n = 0 divided the chunk size by zero
        with pytest.raises(ValueError) as err:
            intersection_distribution(EDGE, n, 3, np.random.default_rng(706))
        assert str(err.value) == f"n must be >= 1, got {n}"

    def test_single_edge_overlap_rate(self):
        # a uniform random pair equals the fixed pair with probability 1/6
        rng = np.random.default_rng(705)
        trials = 20_000
        hist = intersection_distribution(EDGE, 4, trials, rng)
        assert hist.trials == trials
        assert sum(hist.counts.values()) == trials
        p_hat = hist.probabilities().get(1, 0.0)
        sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
        assert abs(p_hat - 1 / 6) < 4 * sigma

    @pytest.mark.parametrize("spec,n", MC_REFERENCES)
    def test_fits_the_brute_law(self, spec, n):
        # chi-square goodness of fit at level 1e-3, cells expected below 5 pooled
        pattern = make_family(spec)
        trials = 20_000
        hist = intersection_distribution(pattern, n, trials, stream(720, n))
        law = brute_intersection_law(pattern, n)
        assert all(law[j] > 0 for j in hist.counts)
        observed, expected = pooled(
            [hist.counts.get(j, 0) for j in range(len(law))], [float(pr) * trials for pr in law]
        )
        assert len(observed) > 1
        _, pvalue = scipy_stats.chisquare(observed, expected)
        assert pvalue > 1e-3

    def test_memory_is_bounded_by_the_chunk_size(self):
        # one chunk of 10^4 permutations of n=4000 would hold ~640 MB
        tracemalloc.start()
        try:
            hist = intersection_distribution(TRIANGLE, 4000, 10_000, np.random.default_rng(709))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.counts.values()) == 10_000
        assert peak < 64 * 2**20

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            intersection_distribution(EDGE, 4, 0, np.random.default_rng(706))

    def test_pattern_larger_than_n(self):
        with pytest.raises(PatternTooLargeError):
            intersection_distribution(TRIANGLE, 2, 10, np.random.default_rng(707))


class TestRiskLowerBounds:
    def test_trivial_moment_gives_trivial_bound(self):
        sm_bound, tv_bound = risk_lower_bounds(1, 0.3, 0.3, 5)
        assert sm_bound == 1.0
        assert tv_bound == 1.0

    def test_known_values(self):
        sm_bound, tv_bound = risk_lower_bounds(2, 0.4, 0.3, 3)
        assert sm_bound == pytest.approx(0.5)
        assert tv_bound == pytest.approx(0.7)

    def test_large_moment_floor(self):
        sm_bound, tv_bound = risk_lower_bounds(100, 0.9, 0.1, 50)
        assert sm_bound == pytest.approx(1 / 200)
        assert tv_bound == 0.0

    def test_invalid_moment(self):
        with pytest.raises(InvalidMomentError):
            risk_lower_bounds(0.5, 0.4, 0.3, 3)

    def test_nan_moment(self):
        # returned (nan, 0.0)
        with pytest.raises(InvalidMomentError) as err:
            risk_lower_bounds(float("nan"), 0.9, 0.2, 3)
        assert str(err.value) == "second moment must be >= 1, got nan"

    def test_moment_past_the_float_range(self):
        sm_bound, tv_bound = risk_lower_bounds(Fraction(10**400), 0.9, 0.1, 5)
        assert sm_bound == 0.0
        assert tv_bound == 0.0
