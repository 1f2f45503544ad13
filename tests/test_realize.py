"""Tests for realizing precentral functions as star decompositions."""

from __future__ import annotations

import gc
import importlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stardeck import (
    Graph,
    Infeasible,
    Star,
    construct,
    decompose_exhaustive,
    is_admissible,
    minimal,
    random_design,
    realize,
    suitable,
    threshold_u,
)
from stardeck.precentral import vertex_values

from conftest import (
    delta_t,
    graphs_divisible,
    seeded_design,
    sorted_edges,
    subset_check,
    verify_decomposition,
)


def _random_instance(rng: random.Random, ks: tuple[int, ...],
                     max_n: int) -> tuple[Graph, int, list[int]]:
    """Random (graph, k, p), k in ``ks`` and 2 <= n <= ``max_n``, with the
    precentral sum constraint satisfied."""
    k = rng.choice(ks)
    n = rng.randint(2, max_n)
    pool = list(combinations(range(n), 2))
    rng.shuffle(pool)
    edges = pool[: rng.randint(0, len(pool))]
    edges = edges[: len(edges) - len(edges) % k]
    g = Graph.from_edges(n, edges)
    total = g.edge_count // k
    values = [0] * n
    for _ in range(total):
        values[rng.randrange(n)] += 1
    return g, k, values


# --------------------------------------------------------------------- realize


def test_realize_single_star_center():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    stars = realize(g, 3, [1, 0, 0, 0])
    assert stars == [Star(0, frozenset({1, 2, 3}))]


def test_realize_single_star_leaf_is_infeasible():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    out = realize(g, 3, [0, 1, 0, 0])
    assert isinstance(out, Infeasible)
    assert delta_t(g, 3, [0, 1, 0, 0], out.vertices) < 0


def test_realize_leaves_nothing_for_the_cyclic_collector():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    gc.collect()
    gc.disable()
    try:
        assert not isinstance(realize(g, 3, [1, 0, 0, 0]), Infeasible)
        assert isinstance(realize(g, 3, [0, 1, 0, 0]), Infeasible)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_realize_complete_graph_minimal():
    g = Graph(6, combinations(range(6), 2))
    p = minimal(g, 3)
    stars = realize(g, 3, p)
    assert not isinstance(stars, Infeasible)
    assert verify_decomposition(g, 3, stars, p)
    # independent confirmation that this central function is achievable
    assert subset_check(g, 3, p) is None


def test_realize_rejects_wrong_sum():
    g = Graph(6, combinations(range(6), 2))
    with pytest.raises(ValueError):
        realize(g, 3, [1, 1, 1, 1, 1, 1])


def test_realize_is_deterministic():
    g = Graph(9, combinations(range(9), 2))
    p = minimal(g, 3)
    assert realize(g, 3, p) == realize(g, 3, p)


# ---------------------------------------------------------------- subset_check


def test_subset_check_finds_deficient_leaf():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert subset_check(g, 3, [0, 1, 0, 0]) == (1,)


def test_subset_check_passes_complete_graph_minimal():
    g = Graph(6, combinations(range(6), 2))
    assert subset_check(g, 3, minimal(g, 3)) is None


def test_subset_check_passes_empty_graph():
    g = Graph.from_edges(5, [])
    assert subset_check(g, 3, [0] * 5) is None


def test_subset_check_enforces_size_guard():
    g = Graph(21, combinations(range(21), 2))
    with pytest.raises(ValueError):
        subset_check(g, 3, minimal(g, 3))
    small = Graph(4, combinations(range(4), 2))
    with pytest.raises(ValueError):
        subset_check(small, 2, minimal(small, 2), max_n=3)


# --------------------------------------------------------- verify_decomposition


def test_verify_accepts_realized_decomposition():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    star = Star(0, frozenset({1, 2, 3}))
    assert verify_decomposition(g, 3, [star], [1, 0, 0, 0])


def test_verify_rejects_missing_edge():
    g = Graph(6, combinations(range(6), 2))
    stars = realize(g, 3, minimal(g, 3))
    assert verify_decomposition(g, 3, stars[:-1]) is False


def test_verify_rejects_wrong_central_function():
    g = Graph(6, combinations(range(6), 2))
    p = minimal(g, 3)
    stars = realize(g, 3, p)
    wrong = list(p.values)
    wrong[0], wrong[5] = wrong[5], wrong[0]
    assert verify_decomposition(g, 3, stars, wrong) is False


def test_verify_rejects_overlapping_stars():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    stars = [Star(0, frozenset({1, 2, 3})), Star(0, frozenset({2, 3, 4}))]
    assert verify_decomposition(g, 3, stars) is False


def test_verify_rejects_wrong_star_size():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert verify_decomposition(g, 3, [Star(0, frozenset({1, 2}))]) is False


def test_verify_rejects_repeated_leaf():
    # a plain tuple, since Star() would drop the repeat
    g = Graph(4, combinations(range(4), 2))
    assert verify_decomposition(g, 3, [(0, (1, 1, 2))]) is False


# ----------------------------------------------------------------- equivalence


@pytest.mark.parametrize("ks, max_n, seed, count, floor", [
    ((2, 3, 4), 10, 2024, 250, 30),
    ((2, 3), 9, 77, 120, 15),
], ids=["seed2024", "seed77"])
def test_realize_agrees_with_subset_check(ks, max_n, seed, count, floor):
    rng = random.Random(seed)
    feasible = infeasible = 0
    for _ in range(count):
        g, k, p = _random_instance(rng, ks, max_n)
        out = realize(g, k, p)
        verdict = subset_check(g, k, p)
        if isinstance(out, Infeasible):
            infeasible += 1
            assert verdict is not None
            assert delta_t(g, k, p, out.vertices) < 0
        else:
            feasible += 1
            assert verdict is None
            assert verify_decomposition(g, k, out, p)
    assert feasible >= floor and infeasible >= floor


# ------------------------------------------------------------------- reference


def _realize_reference(graph: Graph, k: int, p) -> list[Star] | Infeasible:
    """realize over a sorted edge list with per-edge owner indices.

    The package's realize runs the same augmenting-path search over
    adjacency rows; the two must give identical outputs.
    """
    values = vertex_values(p, graph.n)
    n = graph.n
    edges = sorted_edges(graph)
    cap = [k * v for v in values]
    used = [0] * n
    holder: list[list[int]] = [[] for _ in range(n)]
    assigned = [-1] * len(edges)

    def attach(ei: int, x: int) -> None:
        assigned[ei] = x
        holder[x].append(ei)
        used[x] += 1

    def place(ei: int, x: int, visited: set[int]) -> bool:
        if used[x] < cap[x]:
            attach(ei, x)
            return True
        for ej in holder[x]:
            a, b = edges[ej]
            y = b if a == x else a
            if y in visited:
                continue
            visited.add(y)
            if place(ej, y, visited):
                holder[x].remove(ej)
                used[x] -= 1
                attach(ei, x)
                return True
        return False

    for ei, (a, b) in enumerate(edges):
        if used[a] < cap[a]:
            attach(ei, a)
            continue
        visited = {a}
        if place(ei, a, visited):
            continue
        visited.add(b)
        place(ei, b, visited)

    if any(e == -1 for e in assigned):
        reached: set[int] = set()
        frontier: list[int] = []
        for ei, owner in enumerate(assigned):
            if owner == -1:
                for x in edges[ei]:
                    if x not in reached:
                        reached.add(x)
                        frontier.append(x)
        while frontier:
            x = frontier.pop()
            for ej in holder[x]:
                a, b = edges[ej]
                y = b if a == x else a
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return Infeasible("cut", frozenset(range(n)) - reached)

    stars: list[Star] = []
    for v in range(n):
        others = sorted(edges[ei][1] if edges[ei][0] == v else edges[ei][0]
                        for ei in holder[v])
        for i in range(0, len(others), k):
            stars.append(Star(v, frozenset(others[i:i + k])))
    return stars


@st.composite
def _instances(draw: st.DrawFn) -> tuple[Graph, int, list[int]]:
    """(graph, k, p) with sum(p)*k = |E|: minimal, or |E|/k units spread at random."""
    k = draw(st.integers(min_value=2, max_value=5))
    g = draw(graphs_divisible(k, max_n=14))
    if g.edge_count and draw(st.booleans()):
        return g, k, list(minimal(g, k).values)
    values = [0] * g.n
    for x in draw(st.lists(st.integers(0, g.n - 1), min_size=g.edge_count // k,
                           max_size=g.edge_count // k)):
        values[x] += 1
    return g, k, values


@settings(max_examples=400, deadline=None)
@given(_instances())
def test_realize_matches_edge_index_reference(instance):
    g, k, p = instance
    assert realize(g, k, p) == _realize_reference(g, k, p)


# ---------------------------------------------------------- max-flow cross-check


def _flow_feasible(nx, graph: Graph, k: int, values: list[int]) -> bool:
    """True iff a max flow hands every edge to an endpoint x, at most k*p(x) each."""
    net = nx.DiGraph()
    for a, b in sorted_edges(graph):
        net.add_edge("s", (a, b), capacity=1)
        net.add_edge((a, b), a, capacity=1)
        net.add_edge((a, b), b, capacity=1)
    for x in range(graph.n):
        net.add_edge(x, "t", capacity=k * values[x])
    if not graph.edge_count:
        return True
    return nx.maximum_flow_value(net, "s", "t") == graph.edge_count


def test_realize_feasible_exactly_when_max_flow_saturates_edges():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    feasible = infeasible = 0
    for _ in range(120):
        k = rng.choice([2, 3, 4, 5])
        n = rng.randint(2, 40)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = Graph.from_edges(n, edges[: len(edges) - len(edges) % k])
        values = list(minimal(g, k).values)
        # move up to two units between random vertices to reach infeasible cases
        for _ in range(rng.randint(0, 2)):
            donors = [x for x in range(n) if values[x] > 0]
            if donors:
                values[rng.choice(donors)] -= 1
                values[rng.randrange(n)] += 1
        out = realize(g, k, values)
        assert isinstance(out, Infeasible) != _flow_feasible(nx, g, k, values)
        if isinstance(out, Infeasible):
            infeasible += 1
            assert delta_t(g, k, values, out.vertices) < 0
        else:
            feasible += 1
            assert verify_decomposition(g, k, out, values)
    assert feasible >= 25 and infeasible >= 25


# ------------------------------------------------------------------- construct


def test_construct_moves_one_star_across_the_witness_cut():
    # realize fails on the suitable function with the cut {0, 2}; in it vertex
    # 2 has the larger k*p - deg (2 against 0), and outside it 3, 5 and 6 tie
    # for the smallest (-8), so one star moves from 2 to 3
    d = seeded_design(16, 5, 8, seed=32)
    left = d.leftover()
    p = list(suitable(left, 5).values)
    assert realize(left, 5, p).vertices == {0, 2}
    p[2] -= 1
    p[3] += 1
    stars, repairs = construct(left, 5)
    assert repairs == 1
    assert verify_decomposition(left, 5, stars, p)


def test_construct_is_sound_and_stops_on_over_threshold_designs(monkeypatch):
    module = importlib.import_module("stardeck.realize")
    calls = []
    original = module.realize

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "realize", counted)
    rng = random.Random(59)
    built = repaired = refuted = most = 0
    for _ in range(1500):
        k = rng.randint(2, 5)
        n = rng.randint(k + 1, 12)
        if not is_admissible(n, k):
            continue
        try:
            d = random_design(n, k, max(threshold_u(n, k), -1) + rng.randint(1, 3), rng)
        except ValueError:
            continue
        left = d.leftover()
        calls.clear()
        out = construct(left, k)
        most = max(most, len(calls))
        search = decompose_exhaustive(left, k, budget=100_000)
        if out is None:
            refuted += search.status == "none"
            continue
        stars, repairs = out
        assert len(calls) == repairs + 1
        assert verify_decomposition(left, k, stars)
        assert search.status != "none"
        built += 1
        repaired += repairs > 0
    # the largest number of realize calls one construction made in this sample
    assert most <= 5
    assert built >= 400 and repaired >= 5 and refuted >= 100
