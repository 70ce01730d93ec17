"""End-to-end acceptance checks at their stated tolerances.

Each check prints one `A<k> PASS` line with the measured quantities; running
the file directly executes all ten in order and reports a line per check.
"""

import math
from fractions import Fraction

import numpy as np

from plantedlab import (
    DetectorConfig,
    Graph,
    LdpConfig,
    ModelParams,
    MomentParams,
    Observation,
    PolyFamilyExponents,
    complete_graph,
    count_test,
    degree_test,
    estimate_risk,
    g_mu,
    intersection_distribution,
    ldp_norm_sq,
    likelihood_ratio_test,
    make_family,
    max_subgraph_density,
    risk_lower_bounds,
    scan_test,
    second_moment_exact,
    second_moment_pair_enum,
    sparse_thresholds,
    superdense_threshold,
    unbalanced_stars_profile,
    vcd_decompose,
    vertex_cover_number,
    containment_probability,
)

from oracles import (
    all_pairs,
    brute_connected_sets,
    brute_max_density,
    brute_vertex_cover,
    edge_subgraph,
    exact_distributions,
    exact_risk,
    hypergeom_pmf,
    matrix_tree_count,
    random_connected_graph,
    random_graph,
    tv_distance,
    without_isolated,
)

TRIANGLE = complete_graph(3)


def test_a1_representation_equivalence():
    """Three independent forms of E[L^2] agree exactly in rationals."""
    patterns = {
        "edge": Graph(2, [(0, 1)]),
        "path-2": make_family("path:2"),
        "triangle": TRIANGLE,
        "matching-2": make_family("matching:2"),
        "star-3": make_family("star:3"),
    }
    cases = 0
    for pattern in patterns.values():
        for n in (6, 8):
            for lam_sq in (Fraction(1, 2), Fraction(1), Fraction(3)):
                mp = MomentParams(n, lam_sq, pattern)
                a = second_moment_exact(mp).value
                b = second_moment_pair_enum(mp).value
                c = ldp_norm_sq(mp, LdpConfig(degree=pattern.num_edges)).value
                assert a == b == c, (pattern, n, lam_sq, a, b, c)
                cases += 1
    print(f"A1 PASS: {cases} (pattern, n, lambda^2) cases agree exactly")


def test_a2_clique_intersection_law():
    """Sampled K3-copy intersections follow the hypergeometric edge law."""
    trials = 100_000
    hist = intersection_distribution(TRIANGLE, 8, trials, np.random.default_rng(20))
    empirical = hist.probabilities()
    truth: dict[int, float] = {}
    for h, w in hypergeom_pmf(8, 3, 3).items():
        truth[math.comb(h, 2)] = truth.get(math.comb(h, 2), 0.0) + float(w)
    support = set(empirical) | set(truth)
    tv = 0.5 * sum(
        abs(empirical.get(s, 0.0) - truth.get(s, 0.0)) for s in support
    )
    assert tv < 0.01, f"TV distance {tv} >= 0.01"
    print(f"A2 PASS: TV(empirical, hypergeometric) = {tv:.5f} < 0.01")


def test_a3_count_test_risk():
    """Edge counting detects a planted K200 at n=1000, p=0.8, q=0.2."""
    params = ModelParams(n=1000, p=0.8, q=0.2, pattern=complete_graph(200))
    est = estimate_risk("count", params, 200, seed=30)
    assert est.risk < 0.05, f"count risk {est.risk} >= 0.05"
    print(f"A3 PASS: count risk = {est.risk:.4f} < 0.05 (ci {est.ci_halfwidth:.4f})")


def test_a4_degree_test_risk():
    """Max degree detects a planted star(300) at n=2000, p=0.9, q=0.2."""
    params = ModelParams(n=2000, p=0.9, q=0.2, pattern=make_family("star:300"))
    est = estimate_risk("degree", params, 200, seed=40)
    assert est.risk < 0.1, f"degree risk {est.risk} >= 0.1"
    print(f"A4 PASS: degree risk = {est.risk:.4f} < 0.1 (ci {est.ci_halfwidth:.4f})")


def test_a5_scan_test_risk():
    """Scanning 5-sets detects a planted K5 at n=40, p=1, q=0.05.

    The scan guarantee needs mu * KL(kappa||q) > log n, which at these
    parameters holds only for kappa near p (for kappa = 0.905 the ratio is
    about 1.3, against 1.62 at kappa = p and 0.49 at the midpoint), so the
    test is run with the weight at 0.1 rather than the midpoint default.
    """
    params = ModelParams(n=40, p=1.0, q=0.05, pattern=complete_graph(5))
    cfg = DetectorConfig(scan_kappa_weight=0.1)
    est = estimate_risk("scan", params, 100, seed=50, cfg=cfg)
    assert est.risk < 0.05, f"scan risk {est.risk} >= 0.05"
    print(f"A5 PASS: scan risk = {est.risk:.4f} < 0.05 (ci {est.ci_halfwidth:.4f})")


def test_a6_optimality_oracle():
    """Exhaustive n=6 enumeration: the likelihood ratio test's statistic is
    P_H1(G)/P_H0(G) on every graph, and the test dominates."""
    n = 6
    p, q = Fraction(0.9), Fraction(0.3)
    null, planted = exact_distributions(TRIANGLE, n, p, q)
    params = ModelParams(n=n, p=0.9, q=0.3, pattern=TRIANGLE)
    pairs = all_pairs(n)

    decisions = {"lrt": [], "count": [], "degree": [], "scan": []}
    for mask in range(1 << len(pairs)):
        a = np.zeros((n, n), dtype=bool)
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                a[u, v] = a[v, u] = True
        obs = Observation(a)
        verdict = likelihood_ratio_test(obs, params)
        assert verdict.statistic == planted[mask] / null[mask], f"L(G) of graph {mask}"
        decisions["lrt"].append(verdict.decision)
        decisions["count"].append(count_test(obs, params).decision)
        decisions["degree"].append(degree_test(obs, params).decision)
        decisions["scan"].append(scan_test(obs, params).decision)

    risks = {k: exact_risk(d, null, planted) for k, d in decisions.items()}
    for name in ("count", "degree", "scan"):
        assert risks["lrt"] <= risks[name], (
            f"LRT risk {float(risks['lrt']):.6f} exceeds "
            f"{name} risk {float(risks[name]):.6f}"
        )

    tv = tv_distance(null, planted)
    gap = abs(risks["lrt"] - (1 - tv))
    assert gap < Fraction(1, 10**12), f"R(LRT) vs 1 - d_TV gap {float(gap)}"

    mp = MomentParams.from_probabilities(n, p, q, TRIANGLE)
    sm = second_moment_exact(mp).value
    sm_bound, tv_edge_bound = risk_lower_bounds(float(sm), 0.9, 0.3, 3)
    lrt = float(risks["lrt"])
    assert lrt >= sm_bound - 1e-12
    assert lrt >= tv_edge_bound - 1e-12
    print(
        "A6 PASS: R(LRT) = {:.6f} <= count {:.6f}, degree {:.6f}, scan {:.6f}; "
        "R(LRT) = 1 - d_TV exactly; lower bounds {:.4f}, {:.4f} hold".format(
            lrt,
            float(risks["count"]),
            float(risks["degree"]),
            float(risks["scan"]),
            sm_bound,
            tv_edge_bound,
        )
    )


def test_a7_decomposition_guarantee():
    """Every part of the degree decomposition is cover-degree balanced."""
    rng = np.random.default_rng(70)
    graphs = [make_family("unbalanced_stars:256")]
    while len(graphs) < 51:
        g = random_graph(rng, int(rng.integers(2, 31)), float(rng.uniform(0.1, 0.7)))
        if g.num_edges >= 1:
            graphs.append(g)
    checked = 0
    for g in graphs:
        d = g.max_degree()
        for num_parts in (2, 3, 4):
            dec = vcd_decompose(g, num_parts)
            all_edges = [e for part in dec.parts for e in part.edges]
            assert len(all_edges) == g.num_edges
            assert set(all_edges) == set(g.edges)
            bound = 2 * g.num_edges * d ** (1 / num_parts)
            for part in dec.parts:
                if part.num_edges == 0:
                    continue
                trimmed = without_isolated(part)
                tau = vertex_cover_number(trimmed)
                assert tau * part.max_degree() <= bound * (1 + 1e-9), (
                    f"tau*d = {tau * part.max_degree()} > {bound}"
                )
                checked += 1
    print(f"A7 PASS: {checked} parts over {len(graphs)} graphs, M in {{2,3,4}}")


def test_a8_combinatorial_bounds():
    """Spanning-tree, connected-set, and containment bounds on random graphs."""
    rng = np.random.default_rng(80)
    spanning_checked = bollobas_checked = containment_checked = 0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 10)), 0.4)
        mu = float(max_subgraph_density(g))
        d = g.max_degree()

        st = matrix_tree_count(g)
        st_bound = math.e * (2 * mu) ** (g.n - 2)
        assert st <= st_bound * (1 + 1e-9), f"{st} spanning trees > {st_bound}"
        spanning_checked += 1

        if d >= 3:
            for anchor in range(g.n):
                for size in range(1, g.n + 1):
                    count = brute_connected_sets(g, size, anchor)
                    bound = (math.e * (d - 1)) ** (size - 1)
                    assert count <= bound * (1 + 1e-9), (
                        f"{count} connected {size}-sets > {bound}"
                    )
                    bollobas_checked += 1

        tau = vertex_cover_number(g)
        n = g.n + 5
        for _ in range(3):
            keep = [e for e in g.edges if rng.random() < 0.5]
            if not keep:
                continue
            sub = without_isolated(edge_subgraph(g, keep))
            ell = sub.n
            m = len(sub.components())
            lhs = containment_probability(sub, g, n)
            rhs = Fraction((2 * tau) ** m * d ** (ell - m), (n - g.n) ** ell)
            assert lhs <= rhs, f"containment {lhs} > bound {rhs}"
            containment_checked += 1
    print(
        f"A8 PASS: spanning x{spanning_checked}, connected-set "
        f"x{bollobas_checked}, containment x{containment_checked}"
    )


def test_a9_invariant_oracles():
    """Flow-based density and branch-and-bound cover match brute force."""
    rng = np.random.default_rng(90)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 13)), float(rng.uniform(0.15, 0.8)))
        assert max_subgraph_density(g) == brute_max_density(g)
        assert vertex_cover_number(g) == brute_vertex_cover(g)
    print("A9 PASS: mu and tau match exhaustive search on 100 random graphs")


def test_a10_threshold_arithmetic():
    """Closed-form thresholds and the balance ratio hit their targets."""
    lo, hi, comp = sparse_thresholds(
        PolyFamilyExponents(alpha=1, epsilon=2, delta=1, zeta=1)
    )
    assert abs(lo - 2 / 3) < 1e-12
    assert abs(hi - 3 / 4) < 1e-12
    assert abs(comp - 3 / 4) < 1e-12

    assert abs(superdense_threshold(1) - 3 / 4) < 1e-12

    worst = 0.0
    for mu in np.linspace(0.02, 0.95, 100):
        left = g_mu(1 - 1e-14, float(mu))
        right = g_mu(1 + 1e-14, float(mu))
        worst = max(worst, abs(left - right))
    assert worst < 1e-12, f"g_mu jump {worst} at alpha=1"

    edges, d, cover = unbalanced_stars_profile(10**6)
    ratio = math.log(cover * d) / math.log(edges)
    assert abs(ratio - 7 / 5) < 0.02, f"balance ratio {ratio} off 1.4"
    print(
        f"A10 PASS: thresholds (2/3, 3/4, 3/4) and 3/4 exact; "
        f"max g_mu jump {worst:.2e}; balance ratio {ratio:.4f}"
    )


if __name__ == "__main__":
    import sys
    import traceback

    checks = [
        test_a1_representation_equivalence,
        test_a2_clique_intersection_law,
        test_a3_count_test_risk,
        test_a4_degree_test_risk,
        test_a5_scan_test_risk,
        test_a6_optimality_oracle,
        test_a7_decomposition_guarantee,
        test_a8_combinatorial_bounds,
        test_a9_invariant_oracles,
        test_a10_threshold_arithmetic,
    ]
    failures = 0
    for check in checks:
        label = check.__name__.split("_")[1].upper()
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"{label} FAIL: {exc}")
            traceback.print_exc()
    sys.exit(1 if failures else 0)
