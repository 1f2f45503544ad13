"""Tests for proportional/minimal/suitable precentral functions and residues."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stardeck import (
    BadEdge,
    BadVertex,
    Graph,
    PartialDesign,
    Precentral,
    Star,
    find_bad,
    minimal,
    random_design,
    suitable,
    threshold_u,
)

from conftest import delta_t, graphs, graphs_divisible, sorted_edges


def _exhaustive_min_abs_residue(g: Graph, k: int) -> Fraction:
    """True minimum of sum |p*| over all proportional k-precentral functions."""
    two_k = 2 * k
    degrees = g.degrees()
    floors = [d // two_k for d in degrees]
    movable = [x for x in range(g.n) if degrees[x] % two_k > 0]
    q = g.edge_count // k - sum(floors)
    assert 0 <= q <= len(movable)
    best = None
    for ups in combinations(movable, q):
        values = list(floors)
        for x in ups:
            values[x] += 1
        total = sum(
            abs(Fraction(two_k * values[x] - degrees[x], two_k)) for x in range(g.n)
        )
        if best is None or total < best:
            best = total
    assert best is not None
    return best


# -------------------------------------------------------------------- minimal


def test_minimal_complete_graph_example():
    p = minimal(Graph(6, combinations(range(6), 2)), 3)
    assert p.values == (1, 1, 1, 1, 1, 0)


def test_minimal_empty_graph():
    p = minimal(Graph.from_edges(5, []), 3)
    assert p.values == (0, 0, 0, 0, 0)


def test_minimal_single_star_graph():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = minimal(g, 3)
    assert p.values == (1, 0, 0, 0)


def test_minimal_rejects_indivisible_edge_count():
    with pytest.raises(ValueError):
        minimal(Graph(4, combinations(range(4), 2)), 4)


def test_of_graph_validates_sum_and_sign():
    g = Graph(6, combinations(range(6), 2))
    with pytest.raises(ValueError):
        Precentral.of_graph(g, 3, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        Precentral.of_graph(g, 3, [2, 1, 1, 1, 1, -1])


# -------------------------------------------------------------------- residues


def test_pstar_complete_graph_values():
    p = minimal(Graph(6, combinations(range(6), 2)), 3)
    assert p.pstar(0) == Fraction(1, 6)
    assert p.pstar(5) == Fraction(-5, 6)


def test_pstar_isolated_vertex_is_zero():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = minimal(g, 3)
    assert p.pstar(3) == 0 or p.values[3] == 0
    iso = Graph.from_edges(2, [])
    assert minimal(iso, 2).pstar(1) == 0


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_pstar_sums_to_zero(k, data):
    g = data.draw(graphs_divisible(k, max_n=10))
    p = minimal(g, k)
    assert sum(p.pstar(x) for x in range(g.n)) == 0


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_proportional_residue_range(k, data):
    g = data.draw(graphs_divisible(k, max_n=10))
    p = minimal(g, k)
    bound = Fraction(2 * k - 1, 2 * k)
    for x in range(g.n):
        assert -bound <= p.pstar(x) <= bound


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_minimal_pairwise_residue_gap_at_most_one(k, data):
    g = data.draw(graphs_divisible(k, max_n=10))
    p = minimal(g, k)
    residues = p.pstar_all()
    if residues:
        assert max(residues) - min(residues) <= 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_minimal_achieves_exhaustive_minimum(k, data):
    g = data.draw(graphs_divisible(k, max_n=8))
    p = minimal(g, k)
    total = sum(abs(r) for r in p.pstar_all())
    assert total == _exhaustive_min_abs_residue(g, k)


def test_minimal_subset_residue_bound_exhaustive():
    # sum of m* over T at most t(n-t)/n, for every nonempty proper subset
    rng = random.Random(7)
    for _ in range(30):
        k = rng.choice([2, 3])
        n = rng.randint(2, 9)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        edges = edges[: len(edges) - len(edges) % k]
        g = Graph.from_edges(n, edges)
        p = minimal(g, k)
        for t in range(1, n):
            for subset in combinations(range(n), t):
                assert sum(p.pstar(x) for x in subset) <= Fraction(t * (n - t), n)


# -------------------------------------------------------------------- find_bad


def test_find_bad_vertex_low_degree_with_value_one():
    edges = [(0, 1)] + list(combinations(range(2, 9), 2))
    g = Graph.from_edges(9, edges)
    m = [1, 0, 1, 1, 1, 1, 1, 1, 1]
    assert find_bad(m, g, 3) == BadVertex(0)


def test_find_bad_edge_with_two_zero_endpoints():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert find_bad([0, 0, 0], g, 3) == BadEdge(0, 1)


def test_find_bad_none_on_minimal_complete_graph():
    g = Graph(6, combinations(range(6), 2))
    assert find_bad(minimal(g, 3), g, 3) is None


def test_find_bad_prefers_vertex_over_edge():
    # vertex 0: degree 1 < k with value 1; edge {1,2} has two zero endpoints
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    assert find_bad([1, 0, 0, 1], g, 3) == BadVertex(0)


def _find_bad_reference(values, graph: Graph, k: int):
    """find_bad as a plain scan: vertices, then every edge in sorted order."""
    degrees = graph.degrees()
    for y in range(graph.n):
        if degrees[y] < k and values[y] == 1:
            return BadVertex(y)
    for a, b in sorted_edges(graph):
        if values[a] == 0 and values[b] == 0:
            return BadEdge(a, b)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5), graphs(max_n=14), st.data())
def test_find_bad_matches_sorted_edge_scan(k, g, data):
    values = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    assert find_bad(values, g, k) == _find_bad_reference(values, g, k)


# -------------------------------------------------------------------- suitable


def test_suitable_equals_minimal_when_no_flaw():
    g = Graph(6, combinations(range(6), 2))
    assert suitable(g, 3).values == minimal(g, 3).values


def test_suitable_empty_graph_is_zero():
    g = Graph.from_edges(5, [])
    assert suitable(g, 4).values == (0, 0, 0, 0, 0)


def test_suitable_on_small_design_leftover_has_right_sum():
    d = PartialDesign(
        7, 3, (Star(0, frozenset({1, 2, 3})), Star(1, frozenset({2, 3, 4})))
    )
    left = d.leftover()
    s = suitable(left, 3)
    assert sum(s.values) == 5


def test_suitable_preserves_sum_and_touches_at_most_two_vertices():
    rng = random.Random(21)
    for _ in range(200):
        k = rng.choice([2, 3, 4])
        n = rng.randint(2, 10)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        edges = edges[: len(edges) - len(edges) % k]
        g = Graph.from_edges(n, edges)
        m = minimal(g, k)
        s = suitable(g, k)
        assert sum(s.values) == sum(m.values) == g.edge_count // k
        moved = [x for x in range(n) if s.values[x] != m.values[x]]
        assert len(moved) in (0, 2)
        if moved:
            deltas = sorted(s.values[x] - m.values[x] for x in moved)
            assert deltas == [-1, 1]
            assert find_bad(m, g, k) is not None


def test_suitable_repairs_flaws_on_threshold_design_leftovers():
    # on leftovers of threshold-count designs in the large regime the single
    # repair always lands: no bad vertex or edge remains
    rng = random.Random(5)
    checked = 0
    for n in (13, 15, 16, 18):
        u = threshold_u(n, 3)
        for _ in range(25):
            d = random_design(n, 3, u, rng)
            if d.is_reducible():
                continue
            left = d.leftover()
            s = suitable(left, 3)
            assert find_bad(s, left, 3) is None
            checked += 1
    assert checked >= 40


def test_suitable_subset_residue_bound_exhaustive():
    # sum of s* over T at most t(2n-2t-1)/(2(n-1)) for t < n/2,
    # else (2t-1)(n-t)/(2(n-1)), exhaustively on small leftovers
    rng = random.Random(31)
    for n, k in ((6, 3), (7, 3), (9, 3), (10, 3)):
        for _ in range(10):
            m = rng.randint(0, max(threshold_u(n, k), 0))
            d = random_design(n, k, m, rng)
            left = d.leftover()
            s = suitable(left, k)
            for t in range(1, n):
                bound = (
                    Fraction(t * (2 * n - 2 * t - 1), 2 * (n - 1))
                    if t < Fraction(n, 2)
                    else Fraction((2 * t - 1) * (n - t), 2 * (n - 1))
                )
                for subset in combinations(range(n), t):
                    assert sum(s.pstar(x) for x in subset) <= bound


# --------------------------------------------------------------------- delta_t


def test_delta_t_star_center():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert delta_t(g, 3, [1, 0, 0, 0], {0}) == 0


def test_delta_t_star_leaf_deficit():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert delta_t(g, 3, [0, 1, 0, 0], {1}) == -2


def test_delta_t_complete_graph_pair():
    g = Graph(6, combinations(range(6), 2))
    assert delta_t(g, 3, (1, 1, 1, 1, 1, 0), {0, 1}) == 3


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5), graphs(min_n=2, max_n=14), st.data())
def test_delta_t_matches_sorted_edge_scan(k, g, data):
    values = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    t = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1))
    supply = sum(1 for a, b in sorted_edges(g) if a in t or b in t)
    assert delta_t(g, k, values, t) == supply - k * sum(values[x] for x in t)


def test_delta_t_rejects_degenerate_subsets():
    g = Graph(4, combinations(range(4), 2))
    p = minimal(g, 2)
    with pytest.raises(ValueError):
        delta_t(g, 2, p, set())
    with pytest.raises(ValueError):
        delta_t(g, 2, p, {0, 1, 2, 3})
    with pytest.raises(ValueError):
        delta_t(g, 2, p, {0, 9})
