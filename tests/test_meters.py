"""Work meters: under any limit, every metered call either returns the value
it returns unmetered or raises BudgetExceededError after spending more than
the limit and at most the limit plus the call's largest single charge."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantedlab import (
    BudgetExceededError,
    connected_sets_count,
    count_copies,
    isomorphic,
    spanning_tree_count,
    vertex_cover_number,
)
from plantedlab import counting, invariants

from oracles import (
    random_connected_graph,
    random_graph,
    random_pattern,
    swapped_relabelling,
)

METERED = settings(derandomize=True, database=None, max_examples=30, deadline=None)
SEED = st.integers(0, 2**32 - 1)


def check_meter(module, name, limit, call, largest_charge):
    """Compare call() at the default budget with call() under module.name =
    limit; return the units a budget error stated as spent, or None."""
    want = call()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, limit)
        try:
            assert call() == want
            return None
        except BudgetExceededError as exc:
            message = str(exc)
    spent, stated = map(int, re.search(r"(\d+) [a-z ]+ > budget (\d+)", message).groups())
    assert stated == limit
    assert limit < spent <= limit + largest_charge, message
    return spent


@METERED
@given(seed=SEED, limit=st.integers(0, 1500))
def test_cover(seed, limit):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.9)))
    # a node's charge: itself, 20 per vertex and at most every adjacency entry
    check_meter(
        invariants, "COVER_BUDGET", limit, lambda: vertex_cover_number(g),
        1 + 20 * g.n + 2 * g.num_edges,
    )


@METERED
@given(seed=SEED, limit=st.integers(0, 250))
def test_spanning_trees(seed, limit):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 11)), 0.4)
    updates = sum((g.n - 2 - k) ** 2 for k in range(g.n - 2))
    spent = check_meter(
        counting, "SPANNING_TREE_BUDGET", limit, lambda: spanning_tree_count(g), updates
    )
    assert spent in (None, updates)


@METERED
@given(seed=SEED, limit=st.integers(0, 60))
def test_connected_sets(seed, limit):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 11)), 0.45)
    size, anchor = int(rng.integers(1, g.n + 1)), int(rng.integers(0, g.n))
    check_meter(
        counting, "CONNECTED_SETS_BUDGET", limit,
        lambda: connected_sets_count(g, size, anchor), 1,
    )


@METERED
@given(seed=SEED, limit=st.integers(0, 200))
def test_embeddings_through_count_copies(seed, limit):
    rng = np.random.default_rng(seed)
    pattern = random_pattern(rng, 5)
    host = random_graph(rng, int(rng.integers(pattern.n, 11)), 0.5)
    check_meter(
        invariants, "EMBEDDING_BUDGET", limit, lambda: count_copies(pattern, host), 1
    )


@METERED
@given(seed=SEED, limit=st.integers(0, 40))
def test_embeddings_through_isomorphic(seed, limit):
    # equal degree sequences, so the search decides
    rng = np.random.default_rng(seed)
    a = random_graph(rng, int(rng.integers(4, 11)), float(rng.uniform(0.3, 0.7)))
    b = swapped_relabelling(rng, a, 3)
    check_meter(invariants, "EMBEDDING_BUDGET", limit, lambda: isomorphic(a, b), 1)
