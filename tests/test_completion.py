"""Tests for the end-to-end completion pipeline."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from stardeck import (
    CompletionDefect,
    Graph,
    Infeasible,
    PartialDesign,
    Precentral,
    Star,
    complete,
    decompose_2stars,
    decompose_exhaustive,
    design_exists,
    design_from_doc,
    find_bad,
    gen_uncompletable,
    has_completion,
    is_admissible,
    loads_design,
    pad_to_threshold,
    random_design,
    realize,
    suitable,
    threshold_u,
)
from stardeck import completion
from stardeck.completion import _merged

from conftest import (
    graphs,
    is_reducible,
    neighbors,
    seeded_design,
    seeded_design_at_most_u,
    sorted_edges,
    validate_reference,
    verify_decomposition,
)


def _assert_completed(d: PartialDesign, result) -> None:
    assert result.outcome == "completed", result
    full = result.design
    assert full.n == d.n and full.k == d.k
    assert full.validate() == []
    assert full.leftover().edge_count == 0
    assert len(full.stars) * d.k == d.n * (d.n - 1) // 2
    assert set(d.stars) <= set(full.stars)


def _k4_leftover_design() -> PartialDesign:
    """Ten disjoint 3-stars on K_9 whose leftover is exactly K_4 on 0..3.

    The leftover has no blocked edge (all degrees equal k) and no 3-star
    decomposition, so only the exhaustive search can certify impossibility.
    """
    return design_from_doc(
        {
            "n": 9,
            "k": 3,
            "stars": [
                {"center": 0, "leaves": [4, 5, 6]},
                {"center": 7, "leaves": [0, 1, 2]},
                {"center": 8, "leaves": [0, 1, 2]},
                {"center": 1, "leaves": [4, 5, 6]},
                {"center": 2, "leaves": [4, 5, 6]},
                {"center": 3, "leaves": [4, 5, 6]},
                {"center": 7, "leaves": [3, 4, 5]},
                {"center": 8, "leaves": [3, 4, 7]},
                {"center": 5, "leaves": [4, 6, 8]},
                {"center": 6, "leaves": [4, 7, 8]},
            ],
        }
    )


# ------------------------------------------------------------ pad_to_threshold


def test_pad_empty_design_to_threshold():
    p = pad_to_threshold(PartialDesign(9, 3))
    assert len(p.stars) == 3
    assert p.validate() == []


def test_pad_leaves_threshold_design_unchanged():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    assert pad_to_threshold(d) == d


def test_pad_keeps_existing_stars():
    d = PartialDesign(7, 3, (Star(0, frozenset({1, 2, 3})),))
    p = pad_to_threshold(d)
    assert len(p.stars) == 2
    assert p.stars[0] == d.stars[0]
    assert p.validate() == []


def test_helpers_check_parameters_before_building_a_leftover(monkeypatch):
    def refused(self):
        raise AssertionError("leftover built before the parameter checks")

    monkeypatch.setattr(PartialDesign, "leftover", refused)
    monkeypatch.setattr(PartialDesign, "_leftover", refused)
    with pytest.raises(ValueError):
        pad_to_threshold(PartialDesign(8, 3))
    with pytest.raises(ValueError):
        pad_to_threshold(PartialDesign(8, 0))  # no division by k = 0


def test_pad_rejects_design_over_threshold():
    with pytest.raises(ValueError):
        pad_to_threshold(gen_uncompletable(6, 3))


def _pad_with_neighbor_sets(design: PartialDesign) -> PartialDesign:
    """The greedy padding on one neighbor set per vertex, as a reference."""
    leftover = design.leftover()
    n, k = design.n, design.k
    adj = [set(neighbors(leftover, v)) for v in range(n)]
    stars = list(design.stars)
    while len(stars) < threshold_u(n, k):
        center = next(v for v in range(n) if len(adj[v]) >= k)
        leaves = sorted(adj[center])[:k]
        for leaf in leaves:
            adj[center].discard(leaf)
            adj[leaf].discard(center)
        stars.append(Star(center, frozenset(leaves)))
    return PartialDesign(n, k, tuple(stars))


def test_pad_matches_the_neighbor_set_greedy():
    orders = [(n, k) for k in range(2, 6) for n in [*range(2 * k, 41), 76, 81, 97]
              if is_admissible(n, k)]
    padded = 0
    for seed in range(400):
        n, k = orders[seed % len(orders)]
        d = seeded_design_at_most_u(n, k, seed)
        got = pad_to_threshold(d)
        assert got == _pad_with_neighbor_sets(d)
        assert got.validate() == []
        rows = [*d.leftover().rows]
        completion._pad(k, rows, [*d.stars], threshold_u(n, k), [])
        assert tuple(rows) == got.leftover().rows
        padded += len(got.stars) > len(d.stars)
    assert padded > 300


# --------------------------------------------------------------- reduce_design


def test_reduce_doubled_center():
    d = PartialDesign(
        7, 3, (Star(0, frozenset({1, 2, 3})), Star(0, frozenset({4, 5, 6})))
    )
    assert completion._reduction_vertex(d.stars) == 0
    rows = [*d.leftover().rows]
    assert completion.reduce_design(3, rows, d.stars, 0) == ([], [*d.stars])
    assert rows == [*d.leftover().rows]  # x had no free edge left


def test_reduce_picks_smallest_qualifying_vertex_on_the_original_labels():
    d = PartialDesign(
        7, 3, (Star(0, frozenset({1, 2, 3})), Star(1, frozenset({4, 5, 6})))
    )
    assert completion._reduction_vertex(d.stars) == 0
    rows = [*d.leftover().rows]
    # x's free edges, to 4, 5 and 6, become its second star
    assert completion.reduce_design(3, rows, d.stars, 0) == (
        [Star(1, (4, 5, 6))], [Star(0, (1, 2, 3)), Star(0, (4, 5, 6))]
    )
    assert rows == [*PartialDesign(7, 3, (
        Star(0, (1, 2, 3)), Star(0, (4, 5, 6)), Star(1, (4, 5, 6)),
    )).leftover().rows]


# ------------------------------------------------------------ decompose_2stars


def test_2stars_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert decompose_2stars(g) == [Star(1, frozenset({0, 2}))]


def test_2stars_triangle_infeasible():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    out = decompose_2stars(g)
    assert isinstance(out, Infeasible)
    assert out.kind == "odd-component"
    assert out.vertices == frozenset({0, 1, 2})


def test_2stars_small_leftover():
    left = PartialDesign(4, 2, (Star(0, frozenset({1, 2})),)).leftover()
    stars = decompose_2stars(left)
    assert not isinstance(stars, Infeasible)
    assert len(stars) == 2
    assert verify_decomposition(left, 2, stars)


def test_2stars_random_even_graphs():
    rng = random.Random(17)
    done = 0
    for _ in range(150):
        n = rng.randint(2, 12)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        g = Graph.from_edges(n, edges)
        out = decompose_2stars(g)
        if isinstance(out, Infeasible):
            comp = out.vertices
            inside = sum(1 for a, b in sorted_edges(g) if a in comp and b in comp)
            assert inside % 2 == 1
        else:
            assert verify_decomposition(g, 2, out)
            done += 1
    assert done >= 40


def _decompose_2stars_reference(graph: Graph) -> list[Star] | Infeasible:
    """decompose_2stars over a set of unused (low, high) edge tuples.

    The package's decompose_2stars walks its breadth-first search and marks
    paired edges on the adjacency bitsets; the two must give the same stars
    in the same order.
    """
    n = graph.n
    unused = set(sorted_edges(graph))
    seen = [False] * n
    stars: list[Star] = []
    for root in range(n):
        if seen[root] or not graph.rows[root]:
            continue
        order = [root]
        parent: dict[int, int | None] = {root: None}
        seen[root] = True
        qi = 0
        while qi < len(order):
            w = order[qi]
            qi += 1
            for y in neighbors(graph, w):
                if not seen[y]:
                    seen[y] = True
                    parent[y] = w
                    order.append(y)
        if sum(len(neighbors(graph, v)) for v in order) // 2 % 2 != 0:
            return Infeasible("odd-component", frozenset(order))
        for v in reversed(order):
            par = parent[v]
            pending = [y for y in neighbors(graph, v)
                       if y != par and (min(v, y), max(v, y)) in unused]
            for i in range(0, len(pending) - 1, 2):
                y1, y2 = pending[i], pending[i + 1]
                unused.discard((min(v, y1), max(v, y1)))
                unused.discard((min(v, y2), max(v, y2)))
                stars.append(Star(v, frozenset((y1, y2))))
            if len(pending) % 2 == 1:
                y = pending[-1]
                par_edge = (min(v, par), max(v, par))
                assert par_edge in unused
                unused.discard((min(v, y), max(v, y)))
                unused.discard(par_edge)
                stars.append(Star(v, frozenset((y, par))))
    assert not unused
    return stars


@st.composite
def _graphs_by_component_parity(draw: st.DrawFn) -> Graph:
    """A union of edge-disjoint 2-paths, so every component is even, plus
    0-2 spare edges, each of which leaves the component it lands in odd."""
    n = draw(st.integers(min_value=1, max_value=14))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges: set[tuple[int, int]] = set()
    for v, y1, y2 in draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=40)):
        pair = {(min(v, y1), max(v, y1)), (min(v, y2), max(v, y2))}
        if len({v, y1, y2}) == 3 and not pair & edges:
            edges |= pair
    spare = [e for e in combinations(range(n), 2) if e not in edges]
    if spare:
        extra = draw(st.lists(st.sampled_from(spare), unique=True, max_size=2))
        edges.update(extra)
    return Graph.from_edges(n, edges)


def _with_measured_leftovers(test):
    """Adds the leftovers of seeded k = 2 designs with n <= 40, the sizes the
    benchmark pairs, as explicit examples: 0, u/2 and u stars at each order.
    With 0 stars the leftover is that of PartialDesign(n, 2), K_n itself,
    which pairs at every admissible order and is odd at the others."""
    for n in range(2, 41):
        u = max(threshold_u(n, 2), 0)
        for m in sorted({0, u // 2, u}):
            test = example(random_design(n, 2, m, random.Random(n))._leftover())(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_graphs_by_component_parity())
@_with_measured_leftovers
def test_2stars_match_edge_set_reference(g):
    out = decompose_2stars(g)
    assert out == _decompose_2stars_reference(g)
    if not isinstance(out, Infeasible):
        assert all(type(star) is Star for star in out)
        assert verify_decomposition(g, 2, out)


# ------------------------------------------------------- small_order_precentral


def _small_order(d: PartialDesign) -> Precentral:
    return completion.small_order_precentral(d.k, d.leftover(), d.stars, range(d.n))


def test_small_order_construction_midrange():
    # order 3k with three distinct centers: no boosted vertices needed
    d = seeded_design(9, 3, 3, seed=11)
    assert len(set(s.center for s in d.stars)) == 3
    p = _small_order(d)
    assert sum(p.values) == 9
    central = Counter(s.center for s in d.stars)
    for x in range(9):
        if central[x]:
            assert p.values[x] == 2 - central[x]


def test_small_order_construction_top_order():
    # order 3k+1 with four distinct centers: exactly one boosted vertex
    d = next(
        d
        for d in (seeded_design(10, 3, 4, seed=s) for s in range(100))
        if not is_reducible(d) and len(set(s.center for s in d.stars)) == 4
    )
    p = _small_order(d)
    assert sum(p.values) == 11
    assert sorted(p.values, reverse=True)[0] == 2


# ------------------------------------------------------------------- complete


def test_complete_single_star_order_six():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    r = complete(d)
    _assert_completed(d, r)
    assert len(r.design.stars) == 5
    assert "construction=relabel-2k" in r.trace


@pytest.mark.parametrize("k", range(2, 41))
def test_order_2k_extends_one_star_to_a_full_design(k):
    rng = random.Random(k)
    # a random star on 0..2k-1, and on 2k labels spread over 0..3k-1 as when
    # the reduction isolates a vertex
    for universe in (2 * k, 3 * k):
        vertices = sorted(rng.sample(range(universe), 2 * k))
        center, *others = rng.sample(vertices, 2 * k)
        star = Star(center, others[:k])
        built = completion._order_2k(star, vertices)
        assert len(built) == 2 * k - 2
        graph = Graph.from_edges(universe, combinations(vertices, 2))
        assert verify_decomposition(graph, k, [star, *built])
        for s in built:
            assert type(s) is Star and list(s.leaves) == sorted(set(s.leaves)), s


def test_order_2k_completion_makes_no_realize_call(monkeypatch):
    calls = []
    original = completion.realize

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(completion, "realize", spy)
    for k in range(3, 9):
        d = PartialDesign(2 * k, k, (Star(k, range(k)),))
        r = complete(d)
        _assert_completed(d, r)
        assert "construction=relabel-2k" in r.trace
    assert calls == []


def test_complete_not_admissible():
    r = complete(PartialDesign(8, 3))
    assert r.outcome == "impossible"
    assert r.reason == "not-admissible"
    assert r.design is None


def test_complete_order_too_small():
    r = complete(PartialDesign(4, 3))
    assert r.outcome == "impossible"
    assert r.reason == "order-too-small"


def test_complete_trivial_order_one():
    r = complete(PartialDesign(1, 5))
    assert r.outcome == "completed"
    assert r.design.stars == ()
    assert r.trace == ("validated", "trivial-order-1", "merged")


def test_complete_via_reduction():
    d = PartialDesign(
        7, 3, (Star(0, frozenset({1, 2, 3})), Star(0, frozenset({4, 5, 6})))
    )
    r = complete(d)
    _assert_completed(d, r)
    assert len(r.design.stars) == 7
    assert any(step.startswith("reduce@") for step in r.trace)


def test_complete_reduced_design_is_validated_and_merged_once(monkeypatch):
    calls = {"validate": [], "complete": 0}
    validate, complete_ = PartialDesign.validate, completion.complete

    def validate_spy(self):
        calls["validate"].append(self)
        return validate(self)

    def complete_spy(*args, **kwargs):
        calls["complete"] += 1
        return complete_(*args, **kwargs)

    monkeypatch.setattr(PartialDesign, "validate", validate_spy)
    monkeypatch.setattr(completion, "complete", complete_spy)
    design = PartialDesign(16, 3)
    r = completion.complete(design)
    assert r.trace == (
        "validated", "pad+8", "reduce@0", "recurse{pad+4;construction=suitable}", "merged"
    )
    assert calls == {"validate": [design, r.design], "complete": 1}
    _assert_completed(design, r)


@pytest.mark.parametrize("design, trace", [
    (PartialDesign(16, 3),
     ("validated", "pad+8", "reduce@0", "recurse{pad+4;construction=suitable}", "merged")),
    (PartialDesign(12, 3), ("validated", "pad+5", "construction=suitable", "merged")),
])
def test_complete_validates_once_and_builds_one_leftover(monkeypatch, design, trace):
    # the input is validated once, and the merged design once more
    calls = {"validate": [], "leftover": []}

    def spy(name):
        original = getattr(PartialDesign, name)

        def recorded(self):
            calls[name].append(self)
            return original(self)

        monkeypatch.setattr(PartialDesign, name, recorded)

    spy("validate")
    spy("leftover")
    r = complete(design)
    assert r.trace == trace
    assert calls == {"validate": [design, r.design], "leftover": [design]}
    _assert_completed(design, r)


def test_completion_shares_its_label_objects():
    # every label of the result is one of a few int objects per vertex, not
    # a fresh one per star; above 256 each computed int is a new object
    n = 301
    r = complete(PartialDesign(n, 3))
    assert any(step.startswith("reduce@") for step in r.trace)
    labels = {id(v) for center, leaves in r.design.stars for v in (center, *leaves)}
    assert len(labels) <= 4 * n


def test_plain_pair_stars_complete():
    d = PartialDesign(5, 2, [(0, [1, 2])])
    r = complete(d)
    _assert_completed(d, r)
    assert Star(0, (1, 2)) in r.design.stars


def test_plain_pair_with_an_unsorted_bad_leaf_is_invalid():
    # the range check reads the first and last leaf, so leaves must be sorted
    d = PartialDesign(5, 2, [(0, (7, 1))])
    assert d.validate() == ["star 0: leaf 7 out of range"]
    with pytest.raises(ValueError, match="leaf 7 out of range"):
        complete(d)
    with pytest.raises(ValueError, match="leaf 7 out of range"):
        has_completion(d)


def test_complete_k2_route():
    d = PartialDesign(5, 2)
    r = complete(d)
    _assert_completed(d, r)
    assert len(r.design.stars) == 5


def test_k2_within_the_guarantee_is_paired_without_padding(monkeypatch):
    # k = 2 needs neither padding nor the reduction: the pairing decides
    def never(*args):
        raise AssertionError("the paper's construction ran for k = 2")

    monkeypatch.setattr(completion, "_pad", never)
    monkeypatch.setattr(completion, "realize", never)
    count = 0
    for n in range(4, 41):
        if not is_admissible(n, 2):
            continue
        for m in range(threshold_u(n, 2) + 1):
            d = seeded_design(n, 2, m, seed=1000 * n + m)
            r = complete(d)
            _assert_completed(d, r)
            assert r.trace == ("validated", "construction=2star", "merged"), d
            assert has_completion(d) == "yes", d
            count += 1
    assert count == 371


def test_k2_odd_component_within_the_guarantee_is_a_defect(monkeypatch):
    # within the guarantee an odd component is a bug, never an answer
    monkeypatch.setattr(completion, "decompose_2stars",
                        lambda graph: Infeasible("odd-component", frozenset({0, 1, 2})))
    with pytest.raises(CompletionDefect, match=r"odd component: \[0, 1, 2\]"):
        complete(PartialDesign(8, 2))


def test_complete_small_order_route():
    d = next(
        d
        for d in (seeded_design(10, 3, 4, seed=s) for s in range(100))
        if not is_reducible(d)
    )
    r = complete(d)
    _assert_completed(d, r)
    assert "construction=small-order" in r.trace


def test_complete_large_order_route():
    d = seeded_design(13, 3, 6, seed=3)
    r = complete(d)
    _assert_completed(d, r)


def _lemma_designs():
    """Seeded designs that reach the suitable regime: k = 3..5, orders 3k+2
    to 150 and one from 300.  Those of order 0 mod 3 have u // 2 stars, so
    padding runs; the others have u, and at n = 1 (mod k) most of them are
    reducible."""
    for k in (3, 4, 5):
        orders = [n for n in range(3 * k + 2, 151) if design_exists(n, k)]
        orders.append(next(n for n in range(300, 322) if design_exists(n, k)))
        for n in orders:
            u = threshold_u(n, k)
            yield seeded_design(n, k, u // 2 if n % 3 == 0 else u, seed=n * k)


def test_suitable_regime_leftovers_satisfy_the_degree_lemmas(monkeypatch):
    # the paper's lemmas on the leftover of a threshold design, checked on
    # every leftover that complete() hands to the suitable function
    seen = []
    original = completion.suitable

    def spy(graph, k):
        p = original(graph, k)
        seen.append((graph, p))
        return p

    monkeypatch.setattr(completion, "suitable", spy)
    steps = Counter()
    for d in _lemma_designs():
        seen.clear()
        r = complete(d)
        assert r.outcome == "completed"  # merge-checked
        [(graph, p)] = seen
        k = d.k
        reduced = [int(t[len("reduce@"):]) for t in r.trace if t.startswith("reduce@")]
        steps.update(t.partition("+")[0].partition("@")[0] for t in r.trace)
        degrees = graph.degrees()
        vertices = [v for v in range(graph.n) if v not in reduced]
        # at most one vertex of degree <= k, and when three or more have
        # degree below 2k, no two of them are adjacent
        low = [v for v in vertices if degrees[v] < 2 * k]
        assert len([v for v in low if degrees[v] <= k]) <= 1, d
        if len(low) >= 3:
            assert all(degrees[b] >= 2 * k for a in low for b in neighbors(graph, a)), d
        assert find_bad(p, graph, k) is None, d
    assert steps["validated"] >= 180  # one per design
    assert steps["pad"] >= 50 and steps["reduce"] >= 50


def test_flawed_suitable_function_is_a_realization_defect(monkeypatch):
    # a flaw that find_bad would report leaves edges that realize cannot
    # place, so its infeasibility witness names the defect
    monkeypatch.setattr(completion, "suitable", lambda graph, k: Precentral.of_graph(
        graph, k, [graph.edge_count // k] + [0] * (graph.n - 1)))
    with pytest.raises(CompletionDefect,
                       match="construction=suitable: realization infeasible"):
        complete(PartialDesign(12, 3))


def test_complete_full_design_is_identity():
    full = complete(PartialDesign(6, 3)).design
    r = complete(full)
    assert r.outcome == "completed"
    assert set(r.design.stars) == set(full.stars)


def test_complete_rejects_invalid_design():
    with pytest.raises(ValueError):
        complete(PartialDesign(6, 3, (Star(0, frozenset({1, 2})),)))


def test_complete_randomized_guarantee_small_grid():
    rng = random.Random(9)
    count = 0
    for k in (2, 3, 4):
        for n in range(2 * k, 19):
            if not design_exists(n, k):
                continue
            u = threshold_u(n, k)
            for _ in range(6):
                m = rng.randint(0, u)
                d = seeded_design(n, k, m, seed=rng.randrange(2**30))
                _assert_completed(d, complete(d))
                count += 1
    assert count >= 60


# ----------------------------------------------------------------- merge guard


@pytest.mark.parametrize(
    "name, design, step",
    [
        ("decompose_2stars", PartialDesign(4, 2), "construction=2star"),
        (
            "_order_2k",
            PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),)),
            "construction=relabel-2k",
        ),
        ("realize", seeded_design(10, 3, 4, seed=12), "construction=small-order"),
        ("realize", PartialDesign(12, 3), "construction=suitable"),
        ("realize", PartialDesign(16, 3), "reduce@0"),
    ],
)
def test_merge_rejects_construction_one_star_short(monkeypatch, name, design, step):
    assert step in complete(design).trace
    original = getattr(completion, name)
    monkeypatch.setattr(completion, name, lambda *args: original(*args)[:-1])
    with pytest.raises(CompletionDefect, match="does not cover every edge"):
        complete(design)


def test_merge_rejects_valid_incomplete_stars():
    with pytest.raises(CompletionDefect, match="does not cover every edge"):
        _merged(6, 3, [Star(0, frozenset({1, 2, 3}))], [])


def test_merge_rejects_doubly_covered_edge():
    # the star count matches C(6, 2)/3, so only validation can catch this
    full = complete(PartialDesign(6, 3)).design
    stars = [*full.stars[:-1], full.stars[0]]
    with pytest.raises(CompletionDefect, match="covered twice"):
        _merged(6, 3, stars, [])


def _corrupt(kind: str, stars: list[Star], n: int) -> list[Star]:
    """The stars with the last one broken in the given way."""
    center, leaves = stars[-1]
    broken = {
        "leaf-too-large": lambda: Star(center, (*leaves[:-1], n + 3)),
        "leaf-negative": lambda: Star(center, (-1, *leaves[1:])),
        "center-is-leaf": lambda: Star(center, (*leaves[:-1], center)),
        "leaf-count": lambda: Star(center, leaves[:-1]),
        "repeated-edge": lambda: stars[0],
    }[kind]()
    return [*stars[:-1], broken]


@pytest.mark.parametrize("kind, words", [
    ("leaf-too-large", "out of range"),
    ("leaf-negative", "leaf -1 out of range"),
    ("center-is-leaf", "is also a leaf"),
    ("leaf-count", "leaves, expected"),
    ("repeated-edge", "covered twice"),
])
@pytest.mark.parametrize("name, design, step", [
    ("realize", PartialDesign(12, 3), "construction=suitable"),
    ("realize", seeded_design(10, 3, 4, seed=12), "construction=small-order"),
    ("decompose_2stars", PartialDesign(8, 2), "construction=2star"),
    ("realize", PartialDesign(16, 3), "reduce@0"),
])
def test_merge_defect_words_validate_exactly(monkeypatch, kind, words, name, design, step):
    assert step in complete(design).trace
    original = getattr(completion, name)
    monkeypatch.setattr(
        completion, name, lambda *args: _corrupt(kind, original(*args), design.n))
    checked = []
    validate = PartialDesign.validate

    def spy(self):
        checked.append(self)
        return validate(self)

    monkeypatch.setattr(PartialDesign, "validate", spy)
    with pytest.raises(CompletionDefect) as err:
        complete(design)
    first, merged = checked
    assert first == design
    violations = validate_reference(merged)
    assert words in "; ".join(violations)
    assert str(err.value) == "merged design invalid: " + "; ".join(violations)


def test_validate_agrees_with_reference():
    rng = random.Random(3)
    full = complete(PartialDesign(13, 3)).design
    assert full.validate() == validate_reference(full) == []
    for _ in range(300):
        stars = list(full.stars)
        i = rng.randrange(len(stars))
        center, leaves = stars[i]
        stars[i] = Star(rng.randrange(-1, 15), [
            rng.randrange(-2, 15) if rng.random() < 0.3 else v for v in leaves])
        if rng.random() < 0.2:
            stars.append(stars[rng.randrange(len(stars))])
        d = PartialDesign(13, 3, tuple(stars))
        assert d.validate() == validate_reference(d)
    # one leaf moved between two stars of the same center: every edge is
    # still covered once, but the stars have k - 1 and k + 1 leaves
    i, j = next((i, j) for i, j in combinations(range(len(full.stars)), 2)
                if full.stars[i].center == full.stars[j].center)
    (center, short), (_, long) = full.stars[i], full.stars[j]
    stars = list(full.stars)
    stars[i], stars[j] = Star(center, short[1:]), Star(center, {short[0], *long})
    moved = PartialDesign(13, 3, tuple(stars))
    assert moved.validate() == validate_reference(moved) != []
    # n = 0 and k = 1 fail whatever the stars; a sparse design, whose table
    # would outweigh its edges, is checked edge by edge
    sparse = seeded_design(40, 3, 4, seed=5)
    doubled = PartialDesign(40, 3, (*sparse.stars, sparse.stars[0]))
    for d in (PartialDesign(0, 3), PartialDesign(5, 1, (Star(0, (1,)), Star(1, (0,)))),
              sparse, doubled):
        assert d.validate() == validate_reference(d)
    assert validate_reference(sparse) == [] != validate_reference(doubled)


# ------------------------------------------------------------ ascending leaves


def _assert_ascending(stars) -> None:
    for s in stars:
        leaves = s.leaves
        assert type(s) is Star and type(leaves) is tuple, s
        assert all(a < b for a, b in zip(leaves, leaves[1:])), s


def test_every_construction_builds_ascending_leaves():
    paths = set()
    rng = random.Random(17)
    for k in (2, 3, 4, 5):
        for n in range(2 * k, 6 * k + 2):
            if not design_exists(n, k):
                continue
            u = threshold_u(n, k)
            for m in sorted({0, u // 2, u, u + 1, u + 2}):
                try:
                    d = seeded_design(n, k, m, seed=rng.randrange(2**30))
                except ValueError:
                    continue  # no room for m stars
                if m <= u:
                    padded = pad_to_threshold(d)
                    _assert_ascending(padded.stars)
                    if is_reducible(padded):
                        x = completion._reduction_vertex(padded.stars)
                        rows = [*padded.leftover().rows]
                        others, own = completion.reduce_design(k, rows, padded.stars, x)
                        _assert_ascending(others)
                        _assert_ascending(own)
                r = complete(d, oracle_budget=1000)
                if r.outcome == "completed":
                    _assert_ascending(r.design.stars)
                    paths.update(t for t in r.trace if t.startswith("construction="))
                    paths.update("reduction" for t in r.trace if t.startswith("reduce@"))
        for n in range(2, 6 * k):
            if is_admissible(n, k):
                _assert_ascending(gen_uncompletable(n, k).stars)
    assert paths >= {
        "construction=2star", "construction=relabel-2k", "construction=small-order",
        "construction=suitable", "reduction",
    }


def test_over_threshold_exits_build_ascending_leaves():
    for d, step in [
        (seeded_design(16, 5, 6, seed=11), "repair+1"),
        (PartialDesign(9, 3, tuple(Star(v, {v + 1, v + 2, v + 3}) for v in range(4))),
         "construction=suitable"),
        (seeded_design(5, 2, 3, seed=0), "construction=2star"),
        (PartialDesign(7, 3, (Star(5, {0, 2, 4}), Star(0, {1, 2, 3}), Star(1, {3, 4, 6}))),
         "construction=oracle"),
    ]:
        r = complete(d, oracle_budget=1000)
        assert r.outcome == "completed" and step in r.trace
        _assert_ascending(r.design.stars)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.integers(min_value=2, max_value=4))
def test_graph_decompositions_have_ascending_leaves(graph, k):
    pairing = decompose_2stars(graph)
    if not isinstance(pairing, Infeasible):
        _assert_ascending(pairing)
    extra = graph.edge_count % k
    if extra:
        graph = Graph.from_edges(graph.n, sorted_edges(graph)[:-extra])
    found = decompose_exhaustive(graph, k, budget=2000)
    if found.status == "found":
        _assert_ascending(found.stars)
    built = realize(graph, k, suitable(graph, k))
    if not isinstance(built, Infeasible):
        _assert_ascending(built)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**30))
def test_completions_have_ascending_leaves(k, seed):
    rng = random.Random(seed)
    n = rng.choice([n for n in range(2 * k, 7 * k) if design_exists(n, k)])
    d = seeded_design_at_most_u(n, k, seed)
    _assert_ascending(complete(d).design.stars)


# -------------------------------------------------------------- over threshold


def test_over_threshold_completable():
    d = PartialDesign(
        9,
        3,
        (
            Star(0, frozenset({1, 2, 3})),
            Star(1, frozenset({2, 3, 4})),
            Star(2, frozenset({3, 4, 5})),
            Star(3, frozenset({4, 5, 6})),
        ),
    )
    assert len(d.stars) == threshold_u(9, 3) + 1
    r = complete(d)
    _assert_completed(d, r)
    assert "over-threshold-attempt" in r.trace


def test_over_threshold_repaired_construction():
    # realize fails on the suitable function and succeeds after one move;
    # n = 16 is past the oracle's reach, so this used to end unknown
    d = seeded_design(16, 5, 6, seed=11)
    assert len(d.stars) > threshold_u(16, 5)
    r = complete(d, oracle_budget=1)
    _assert_completed(d, r)
    assert r.trace == ("validated", "over-threshold-attempt", "repair+1",
                       "construction=suitable", "merged")


def test_over_threshold_blocked_edge():
    d = gen_uncompletable(6, 3)
    r = complete(d)
    assert r.outcome == "impossible"
    assert r.reason == "blocked-edge"
    assert r.certificate == {"blocked_edge": [0, 1], "degrees": [2, 2]}


@pytest.mark.parametrize("design", [
    gen_uncompletable(9, 3),  # blocked edge
    seeded_design(5, 2, 3, seed=0),  # 2-star pairing
    PartialDesign(9, 3, tuple(Star(v, frozenset({v + 1, v + 2, v + 3})) for v in range(4))),
    _k4_leftover_design(),  # realize fails, the oracle refutes
])
def test_over_threshold_builds_one_leftover(design, monkeypatch):
    # a blocked edge is read off the stars, so that design builds none;
    # every design is validated once per call, and a completion once more
    calls = {"validate": [], "_leftover": []}

    def spy(name):
        original = getattr(PartialDesign, name)

        def counted(self):
            calls[name].append(self)
            return original(self)

        monkeypatch.setattr(PartialDesign, name, counted)

    spy("validate")
    spy("_leftover")
    assert len(design.stars) > threshold_u(design.n, design.k)
    r = complete(design, oracle_budget=1000)
    builds = [] if r.reason == "blocked-edge" else [design]
    checks = [design] if r.design is None else [design, r.design]
    assert calls == {"validate": checks, "_leftover": builds}
    calls["validate"].clear()
    calls["_leftover"].clear()
    has_completion(design, budget=1000)
    assert calls == {"validate": [design], "_leftover": builds}


def _odd_component_design() -> PartialDesign:
    """An n = 8, k = 2 design whose leftover is a triangle on 0..2 plus K_5
    minus an edge on 3..7: no blocked edge, but the triangle component has
    odd edge count."""
    triangle = {(0, 1), (0, 2), (1, 2)}
    near_k5 = set(combinations(range(3, 8), 2)) - {(3, 4)}
    covered = [e for e in combinations(range(8), 2) if e not in triangle | near_k5]
    stars = decompose_2stars(Graph.from_edges(8, covered))
    return PartialDesign(8, 2, tuple(stars))


def test_over_threshold_odd_component():
    d = _odd_component_design()
    assert d.validate() == []
    r = complete(d)
    assert r.outcome == "impossible"
    assert r.reason == "odd-component"
    assert r.certificate == {"odd_component": [0, 1, 2]}


def test_has_completion_decides_k2_by_pairing(monkeypatch):
    # the even-component rule decides k = 2, so no search is needed
    def no_search(*args, **kwargs):
        raise AssertionError("searched although k = 2 is decided by pairing")

    monkeypatch.setattr("stardeck.completion.decompose_exhaustive", no_search)
    assert has_completion(_odd_component_design()) == "no"


def test_over_threshold_oracle_refutation():
    d = _k4_leftover_design()
    assert d.validate() == []
    left = d.leftover()
    assert sorted_edges(left) == list(combinations(range(4), 2))
    r = complete(d)
    assert r.outcome == "impossible"
    assert r.reason == "oracle"


def test_over_threshold_unknown_when_budget_exhausted():
    r = complete(_k4_leftover_design(), oracle_budget=0)
    assert r.outcome == "unknown"
    assert r.reason == "oracle-budget-exceeded"
    assert r.design is None


# u(15, 5) = 3; construct fails on both leftovers, and the search finds a
# decomposition in 60 and 1,064 nodes
SEARCHED_AT_15 = [
    '{"n":15,"k":5,"stars":[{"center":0,"leaves":[1,2,10,12,13]},'
    '{"center":14,"leaves":[2,4,5,7,9]},{"center":3,"leaves":[4,5,9,11,14]},'
    '{"center":11,"leaves":[0,2,4,7,9]},{"center":1,"leaves":[2,4,10,11,14]},'
    '{"center":8,"leaves":[0,2,6,11,14]},{"center":14,"leaves":[6,10,11,12,13]},'
    '{"center":12,"leaves":[2,3,4,7,10]},{"center":6,"leaves":[1,2,4,11,12]}]}',
    '{"n":15,"k":5,"stars":[{"center":7,"leaves":[0,1,6,8,11]},'
    '{"center":14,"leaves":[1,2,4,7,9]},{"center":3,"leaves":[4,7,11,12,14]},'
    '{"center":12,"leaves":[1,4,5,11,13]},{"center":8,"leaves":[0,1,3,4,9]},'
    '{"center":13,"leaves":[0,4,5,6,8]},{"center":10,"leaves":[2,6,7,8,9]},'
    '{"center":2,"leaves":[1,3,4,11,13]},{"center":4,"leaves":[0,1,5,9,11]}]}',
]


@pytest.mark.parametrize("text", SEARCHED_AT_15)
def test_over_threshold_searches_at_any_order(text):
    # only the node budget bounds the search, as for has_completion
    d = loads_design(text)
    assert len(d.stars) > threshold_u(d.n, d.k)
    r = complete(d)
    _assert_completed(d, r)
    assert r.trace[-2:] == ("construction=oracle", "merged")
    assert has_completion(d) == "yes"


def test_over_threshold_differential_fuzz():
    # every verdict over the threshold is checked by an independent path:
    # a completion by verify_decomposition on the leftover, a refutation by
    # the exhaustive search; unknown is only the oracle's to give.  Designs
    # within the guarantee, at n = 1 and on orders that no full design has
    # go through the same checks, where design_exists refutes the last ones
    rng = random.Random(6)
    pairs = [(n, k) for k in range(2, 6) for n in range(2 * k, 17) if is_admissible(n, k)]
    designs = []
    for i in range(300):
        n, k = pairs[i % len(pairs)]
        while True:
            try:
                designs.append(
                    random_design(n, k, threshold_u(n, k) + rng.randint(1, 3), rng))
                break
            except ValueError:
                continue  # no room for that many stars; draw again
    designs += [random_design(n, k, rng.randint(0, threshold_u(n, k)), rng)
                for n, k in pairs]
    # at n = 1, k not dividing C(8, 2), and n < 2k on admissible orders
    designs += [PartialDesign(1, 3), PartialDesign(8, 3)]
    designs += [PartialDesign(n, k) for n, k in (
        (16, 10), (16, 12), (21, 14), (21, 15), (25, 15), (28, 18), (25, 20))]
    outcomes = set()
    for d in designs:
        k = d.k
        r = complete(d, oracle_budget=1000)
        outcomes.add(r.outcome)
        assert has_completion(d, budget=1000) == {
            "completed": "yes", "impossible": "no", "unknown": "unknown"
        }[r.outcome], d
        if r.outcome == "completed":
            given = set(d.stars)
            assert given <= set(r.design.stars)
            new = [s for s in r.design.stars if s not in given]
            assert verify_decomposition(d.leftover(), k, new), d
        elif r.reason in ("not-admissible", "order-too-small"):
            assert not d.stars and not design_exists(d.n, k), d
        elif r.outcome == "impossible":
            assert decompose_exhaustive(d.leftover(), k, budget=10**6).status == "none", d
        else:
            assert r.outcome == "unknown" and r.reason.startswith("oracle-"), r
            assert len(d.stars) > threshold_u(d.n, k), d
    assert outcomes >= {"completed", "impossible"}


# ------------------------------------------------- boundary and relabel families


def _complete_extremal_minus_one_star(top: int) -> tuple[int, int]:
    """Complete gen_uncompletable(n, k) less each one star, for k = 2..6 and
    2k <= n <= top; returns the designs completed and how many reduced."""
    # gen_uncompletable(n, k) less any one star has exactly u stars, so it
    # lies in the guarantee; for k > 2 and n = 1 (mod k) only the reduction
    # completes it, and k = 2 is paired without one
    count = reduced = 0
    for k in range(2, 7):
        for n in range(2 * k, top + 1):
            if not is_admissible(n, k):
                continue
            stars = gen_uncompletable(n, k).stars
            for i in range(len(stars)):
                d = PartialDesign(n, k, stars[:i] + stars[i + 1:])
                r = complete(d)
                _assert_completed(d, r)
                reduces = any(step.startswith("reduce@") for step in r.trace)
                assert reduces == (k > 2 and n % k == 1), (n, k, i, r.trace)
                count += 1
                reduced += reduces
    return count, reduced


def test_extremal_designs_minus_one_star_complete():
    assert _complete_extremal_minus_one_star(40) == (964, 273)


@pytest.mark.slow
def test_extremal_designs_minus_one_star_complete_below_100():
    assert _complete_extremal_minus_one_star(99) == (6199, 1819)


def _relabeled(d: PartialDesign, rng: random.Random) -> PartialDesign:
    """The design under a random vertex permutation, its stars shuffled."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    stars = [Star(perm[s.center], [perm[x] for x in s.leaves]) for s in d.stars]
    rng.shuffle(stars)
    return PartialDesign(d.n, d.k, tuple(stars))


def test_relabeled_designs_within_the_guarantee_complete():
    rng = random.Random(21)
    pairs = [(n, k) for k in range(2, 7) for n in range(2 * k, 41) if design_exists(n, k)]
    for i in range(300):
        n, k = pairs[i % len(pairs)]
        d = random_design(n, k, rng.randint(0, threshold_u(n, k)), rng)
        for given in (d, _relabeled(d, rng)):
            _assert_completed(given, complete(given))


def test_relabeling_never_flips_an_answer_over_the_threshold():
    # only the search depends on labels, so only "unknown" may move
    rng = random.Random(22)
    pairs = [(n, k) for k in range(3, 6) for n in range(2 * k, 17) if is_admissible(n, k)]
    outcomes = Counter()
    moved = 0
    for i in range(1500):
        n, k = pairs[i % len(pairs)]
        while True:
            try:
                d = random_design(n, k, threshold_u(n, k) + rng.randint(1, 3), rng)
                break
            except ValueError:
                continue  # no room for that many stars; draw again
        a = complete(d, oracle_budget=1000)
        b = complete(_relabeled(d, rng), oracle_budget=1000)
        assert {a.outcome, b.outcome} != {"completed", "impossible"}, d
        if a.outcome == b.outcome == "impossible":
            assert a.reason == b.reason, d
        moved += a.outcome != b.outcome
        outcomes[a.outcome, a.reason] += 1
    # 1,221 completed, 235 blocked-edge and 44 oracle refutations as given;
    # one design moves between a definite answer and unknown
    assert moved == 1, outcomes


# ------------------------------------------------------------------ result doc


def test_result_doc_shapes():
    done = complete(PartialDesign(6, 3)).to_doc()
    assert set(done) == {"outcome", "design", "trace"}
    assert done["outcome"] == "completed"

    failed = complete(gen_uncompletable(6, 3)).to_doc()
    assert set(failed) == {"outcome", "reason", "certificate", "trace"}
    assert failed["reason"] == "blocked-edge"
