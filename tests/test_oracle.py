"""Tests for the exhaustive decomposition oracle."""

from __future__ import annotations

import gc
from itertools import combinations

import pytest

from stardeck import (
    Graph,
    PartialDesign,
    Star,
    construct,
    decompose_exhaustive,
    design_from_doc,
    gen_uncompletable,
    has_completion,
    threshold_u,
)

from conftest import seeded_design, verify_decomposition


def test_complete_graph_is_decomposable():
    g = Graph(6, combinations(range(6), 2))
    res = decompose_exhaustive(g, 3)
    assert res.status == "found"
    assert len(res.stars) == 5
    assert verify_decomposition(g, 3, res.stars)


def test_search_depth_is_not_bounded_by_the_call_stack():
    # 1,080 stars deep; a search that nested one call per star overflowed
    g = Graph(81, combinations(range(81), 2))
    res = decompose_exhaustive(g, 3)
    assert (res.status, res.nodes) == ("found", 1081)
    assert len(res.stars) == 1080
    assert verify_decomposition(g, 3, res.stars)


def test_triangle_has_no_2star_decomposition():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert decompose_exhaustive(g, 2).status == "none"


def test_search_leaves_nothing_for_the_cyclic_collector():
    k6 = Graph(6, combinations(range(6), 2))
    blocked = gen_uncompletable(6, 3).leftover()
    gc.collect()
    gc.disable()
    try:
        statuses = [decompose_exhaustive(k6, 3).status,
                    decompose_exhaustive(blocked, 3).status,
                    decompose_exhaustive(k6, 3, budget=1).status]
        assert statuses == ["found", "none", "budget_exceeded"]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_blocked_leftover_has_no_decomposition():
    left = gen_uncompletable(6, 3).leftover()
    assert decompose_exhaustive(left, 3).status == "none"


def test_indivisible_edge_count_is_immediate_none():
    res = decompose_exhaustive(Graph(4, combinations(range(4), 2)), 4)
    assert res.status == "none"
    assert res.nodes == 0


def test_budget_exhaustion_is_reported():
    res = decompose_exhaustive(Graph(6, combinations(range(6), 2)), 3, budget=0)
    assert res.status == "budget_exceeded"
    assert res.stars is None


def test_search_is_deterministic():
    g = Graph(9, combinations(range(9), 2))
    assert decompose_exhaustive(g, 3) == decompose_exhaustive(g, 3)


# over-threshold designs (n, k, stars, seed) whose leftover construct() cannot
# decompose, with the search's (status, nodes): a change to the order in which
# the search tries its candidates shows here as a different node count
SEARCH_ORDER = [
    (10, 5, 3, 101, "none", 344),
    (11, 5, 4, 117, "found", 11),
    (11, 5, 4, 177, "found", 87),
    (10, 5, 4, 326, "none", 22),
    (11, 5, 3, 372, "found", 27),
    (11, 5, 5, 462, "none", 22),
    (9, 3, 7, 527, "found", 6),
    (9, 4, 3, 624, "found", 7),
    (10, 5, 4, 1106, "none", 30),
    (11, 5, 4, 1197, "none", 950),
    (9, 3, 6, 1562, "found", 9),
    (11, 5, 4, 1617, "found", 121),
]


@pytest.mark.parametrize("n, k, stars, seed, status, nodes", SEARCH_ORDER)
def test_search_visits_the_pinned_number_of_nodes(n, k, stars, seed, status, nodes):
    left = seeded_design(n, k, stars, seed).leftover()
    assert construct(left, k) is None
    res = decompose_exhaustive(left, k)
    assert (res.status, res.nodes) == (status, nodes)
    if status == "found":
        assert verify_decomposition(left, k, res.stars)


def test_rejects_k_below_two():
    with pytest.raises(ValueError):
        decompose_exhaustive(Graph(4, combinations(range(4), 2)), 1)


# -------------------------------------------------------------- has_completion

# construct() fails on this leftover, yet the search finds a decomposition
SEARCH_ONLY = PartialDesign(7, 3, (
    Star(5, frozenset({0, 2, 4})),
    Star(0, frozenset({1, 2, 3})),
    Star(1, frozenset({3, 4, 6})),
))


def test_has_completion_yes():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    assert has_completion(d) == "yes"


def test_has_completion_no_for_extremal_design():
    assert has_completion(gen_uncompletable(7, 3)) == "no"


def test_has_completion_no_when_not_admissible():
    assert has_completion(PartialDesign(8, 3)) == "no"


def test_has_completion_builds_before_searching(monkeypatch):
    d = seeded_design(16, 5, 6, seed=11)
    assert len(d.stars) > threshold_u(16, 5)
    _, repairs = construct(d.leftover(), 5)
    assert repairs == 1

    def no_search(*args, **kwargs):
        raise AssertionError("searched although the construction succeeds")

    monkeypatch.setattr("stardeck.completion.decompose_exhaustive", no_search)
    assert has_completion(d, budget=1) == "yes"


def test_has_completion_finds_blocked_edge_before_searching():
    # edge {2, 4} is blocked: both ends have leftover degree 2 < k
    d = design_from_doc({"k": 3, "n": 9, "stars": [
        {"center": 2, "leaves": [1, 5, 8]},
        {"center": 4, "leaves": [0, 3, 6]},
        {"center": 4, "leaves": [1, 5, 8]},
        {"center": 2, "leaves": [0, 3, 6]},
    ]})
    assert has_completion(d, budget=1000) == "no"


def test_has_completion_unknown_on_tiny_budget():
    assert has_completion(SEARCH_ONLY, budget=0) == "unknown"


def test_has_completion_rejects_invalid_design():
    bad = PartialDesign(6, 3, (Star(0, frozenset({1, 2})),))
    with pytest.raises(ValueError):
        has_completion(bad)
