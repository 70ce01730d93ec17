"""The work meter: under any limit L, every metered call, nested calls
included, either returns the value it returns at the default limit, having
spent at most L, or raises BudgetExceededError at the charge that takes it
past L, so that L < spent <= L + the largest single charge. Each call has
its own meter, on each thread."""

import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab import (
    BudgetExceededError,
    LdpConfig,
    ModelParams,
    MomentParams,
    Observation,
    automorphism_count,
    copies_in_complete,
    count_copies,
    densest_vertex_set,
    estimate_risk,
    graph_stats,
    isomorphic,
    ldp_norm_sq,
    make_family,
    max_subgraph_density,
    scan_test,
    second_moment_exact,
    vertex_cover_number,
)
from plantedlab import counting, detectors, invariants, moments, trace

from oracles import (
    random_graph,
    random_pattern,
    swapped_relabelling,
)

METERED = settings(derandomize=True, database=None, max_examples=30, deadline=None)
SEED = st.integers(0, 2**32 - 1)
CHARGING_MODULES = (counting, detectors, invariants, moments)


def check_meter(percent, call):
    """call() at the default limit against call() under WORK_BUDGET = L,
    `percent` of what it spends at the default limit; "returned" or
    "raised"."""
    want = call()
    charges = []

    def spy(what, units):
        charges.append(units)
        trace.spend(what, units)

    with pytest.MonkeyPatch.context() as mp:
        for module in CHARGING_MODULES:
            mp.setattr(module, "spend", spy)
        call()
        limit = sum(charges) * percent // 100
        charges.clear()
        mp.setattr(trace, "WORK_BUDGET", limit)
        try:
            assert call() == want
            assert sum(charges) <= limit, "returned past the limit"
            return "returned"
        except BudgetExceededError as exc:
            assert exc.limit == limit and exc.spent == sum(charges), str(exc)
            assert limit < exc.spent <= limit + max(charges), str(exc)
            assert exc.spent - charges[-1] <= limit, "raised after the crossing charge"
            assert str(exc) == f"{exc.what}: {exc.spent} work units > budget {limit}"
            return "raised"


def both_outcomes(prop):
    """Run the hypothesis property `prop`, which returns check_meter's
    outcome for a limit of 0-200% of the call's spending, and require that
    both outcomes occurred."""
    outcomes = set()

    @METERED
    @given(seed=SEED, percent=st.integers(0, 200), data=st.data())
    def run(seed, percent, data):
        outcomes.add(prop(np.random.default_rng(seed), percent, data))

    run()
    assert outcomes == {"returned", "raised"}


def test_cover():
    def prop(rng, percent, data):
        g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.9)))
        return check_meter(percent, lambda: vertex_cover_number(g))

    both_outcomes(prop)


def test_embeddings_through_count_copies():
    def prop(rng, percent, data):
        pattern = random_pattern(rng, 5)
        host = random_graph(rng, int(rng.integers(pattern.n, 11)), 0.5)
        return check_meter(percent, lambda: count_copies(pattern, host))

    both_outcomes(prop)


def test_embeddings_through_isomorphic():
    def prop(rng, percent, data):
        # equal degree sequences, so the search decides
        a = random_graph(rng, int(rng.integers(4, 11)), float(rng.uniform(0.3, 0.7)))
        b = swapped_relabelling(rng, a, 3)
        return check_meter(percent, lambda: isomorphic(a, b))

    both_outcomes(prop)


def test_graph_stats():
    def prop(rng, percent, data):
        g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.9)))
        return check_meter(percent, lambda: graph_stats(g))

    both_outcomes(prop)


def test_automorphism_count():
    def prop(rng, percent, data):
        g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.9)))

        def call():
            automorphism_count.cache_clear()  # a cached count spends nothing
            return automorphism_count(g)

        return check_meter(percent, call)

    both_outcomes(prop)


def test_max_subgraph_density():
    # the peel is charged per vertex removed, each flow phase (the network
    # built at the greedy shares too) per arc, and the densest set's
    # residual pass per node and arc
    def prop(rng, percent, data):
        n = int(rng.integers(40, 121))
        g = random_graph(rng, n, float(rng.uniform(1, 12)) / n)
        call = (max_subgraph_density, densest_vertex_set)[int(rng.integers(0, 2))]
        return check_meter(percent, lambda: call(g))

    both_outcomes(prop)


def test_scan_test():
    def prop(rng, percent, data):
        pattern = random_pattern(rng, 5)
        n = int(rng.integers(pattern.n, 13))
        obs = Observation.from_graph(random_graph(rng, n, float(rng.random())))
        params = ModelParams(n=n, p=0.9, q=0.3, pattern=pattern)
        return check_meter(percent, lambda: scan_test(obs, params))

    both_outcomes(prop)


def answering_routes(monkeypatch):
    """The set of moment routes that answered, filled in as calls run."""
    routes = set()
    count = moments._shared_edge_counts

    def spy(*args):
        counts = count(*args)
        routes.add("edge subsets" if counts is None else "shared-edge count")
        return counts

    monkeypatch.setattr(moments, "_shared_edge_counts", spy)
    return routes


def test_second_moment_exact(monkeypatch):
    routes = answering_routes(monkeypatch)

    def prop(rng, percent, data):
        pattern = random_pattern(rng, 5)
        mp = MomentParams(int(rng.integers(pattern.n, 9)), Fraction(1, 2), pattern)
        return check_meter(percent, lambda: second_moment_exact(mp))

    both_outcomes(prop)
    assert routes == {"shared-edge count", "edge subsets"}


def test_ldp_norm_sq(monkeypatch):
    routes = answering_routes(monkeypatch)

    def prop(rng, percent, data):
        pattern = random_pattern(rng, 5)
        mp = MomentParams(int(rng.integers(pattern.n, 9)), Fraction(1, 3), pattern)
        cfg = LdpConfig(degree=int(rng.integers(0, pattern.num_edges + 1)))
        return check_meter(percent, lambda: ldp_norm_sq(mp, cfg))

    both_outcomes(prop)
    assert routes == {"shared-edge count", "edge subsets"}


def test_scan_risk_is_the_same_on_two_threads():
    params = ModelParams(n=30, p=1.0, q=0.05, pattern=make_family("clique:5"))
    one = estimate_risk("scan", params, trials=6, seed=11, threads=1)
    two = estimate_risk("scan", params, trials=6, seed=11, threads=2)
    assert one == two


def test_each_thread_has_its_own_meter(monkeypatch):
    # a call that has used its whole limit waits while a call on another
    # thread spends; only the first then runs out
    limit = 10_000
    monkeypatch.setattr(trace, "WORK_BUDGET", limit)
    full, done = threading.Event(), threading.Event()
    errors = []

    @trace.metered
    def exhaust():
        trace.spend("first call", limit)
        full.set()
        done.wait(10)
        trace.spend("first call", 1)

    def first():
        try:
            exhaust()
        except BudgetExceededError as exc:
            errors.append(exc)

    thread = threading.Thread(target=first)
    thread.start()
    assert full.wait(10)
    pattern, host = make_family("path:3"), make_family("clique:6")
    assert count_copies(pattern, host) == copies_in_complete(pattern, 6)
    done.set()
    thread.join(10)
    assert not thread.is_alive()
    assert [(e.what, e.spent, e.limit) for e in errors] == [("first call", limit + 1, limit)]


def test_left_is_what_the_open_meter_holds(monkeypatch):
    monkeypatch.setattr(trace, "WORK_BUDGET", 100)

    @trace.metered
    def call():
        trace.spend("first charge", 7)
        return trace.left()

    assert trace.left() == float("inf")
    assert call() == 93
    assert trace.left() == float("inf")
