"""Tests for the core design model: stars, graphs, thresholds, JSON documents."""

from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import re
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stardeck import (
    Graph,
    PartialDesign,
    Star,
    canonical_dumps,
    complete,
    design_exists,
    design_from_doc,
    design_to_doc,
    dumps_design,
    gen_uncompletable,
    is_admissible,
    loads_design,
    random_design,
    threshold_u,
)
from stardeck.completion import _reduction_vertex
from stardeck.designs import _members

from conftest import (
    is_reducible,
    seeded_design,
    sorted_edges,
    threshold_u_ab,
    validate_reference,
)


# ---------------------------------------------------------------- stars/graphs


def test_graph_from_edges_deduplicates_and_orders():
    g = Graph.from_edges(4, [(1, 0), (0, 1), (3, 2)])
    assert sorted_edges(g) == [(0, 1), (2, 3)]
    assert g.edge_count == 2
    assert g.rows[1] >> 0 & 1 and not g.rows[0] >> 2 & 1
    assert g.rows[0] == 1 << 1
    assert g.degrees() == (1, 1, 1, 1)


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(4, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(4, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(4, [(-1, 2)])


@pytest.mark.parametrize("wrap", [
    frozenset, set, list, lambda pairs: (p for p in pairs),
    lambda pairs: [list(p) for p in pairs],
])
def test_graph_normalizes_any_edge_collection(wrap):
    pairs = [(2, 1), (0, 3), (3, 0)]
    for g in (Graph(4, wrap(pairs)), Graph.from_edges(4, wrap(pairs))):
        assert sorted_edges(g) == [(0, 3), (1, 2)]
        assert g.rows == (1 << 3, 1 << 2, 1 << 1, 1 << 0)
        assert g.rows[3] == 1 << 0


@pytest.mark.parametrize("wrap", [frozenset, set, list])
@pytest.mark.parametrize("pair, message", [
    ((1, 1), "loop at vertex 1"),
    ((0, 4), "edge (0,4) out of range for n=4"),
    ((4, 0), "edge (4,0) out of range for n=4"),
    ((-1, 2), "edge (-1,2) out of range for n=4"),
])
def test_graph_rejects_bad_pair_in_any_collection(wrap, pair, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph(4, wrap([(0, 1), pair]))


def test_members_reads_the_set_bits_as_the_callers_labels():
    rng = random.Random(23)
    for n in (1, 2, 63, 64, 65, 257, 600, 1300):
        labels = [*range(n)]
        masks = [0, 1, 1 << (n - 1), rng.getrandbits(n),
                 rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)]
        for mask in masks:
            got = _members(mask, labels)
            assert got == [y for y in range(n) if mask >> y & 1]
            assert all(a < b for a, b in zip(got, got[1:]))
            assert all(y is labels[y] for y in got)


def test_sorted_edges_returns_a_fresh_list():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    first = sorted_edges(g)
    first.append((0, 2))
    first.reverse()
    assert sorted_edges(g) == [(0, 1), (1, 3), (2, 3)]
    leftover = PartialDesign(4, 2, (Star(0, frozenset({1, 2})),)).leftover()
    sorted_edges(leftover).clear()
    assert sorted_edges(leftover) == [(0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("leaves", [
    [3, 1, 2], {1, 2, 3}, (3, 2, 1), frozenset({2, 3, 1}), [3, 1, 1, 2],
    (x for x in (2, 3, 1, 3)),
])
def test_star_leaves_are_always_a_sorted_tuple(leaves):
    s = Star(0, leaves)
    assert type(s.leaves) is tuple and s.leaves == (1, 2, 3)
    assert s.center == 0 and list(s.leaves) == [1, 2, 3]
    for other in ([1, 2, 3], {3, 2, 1}, (2, 1, 3), frozenset({1, 2, 3})):
        assert s == Star(0, other) and hash(s) == hash(Star(0, other))
    assert s != Star(0, (1, 2, 4)) and s != Star(1, (1, 2, 3))
    assert len({s, Star(0, [2, 1, 3])}) == 1
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.leaves = (4, 5, 6)  # type: ignore[misc]
    assert repr(s) == "Star(center=0, leaves=(1, 2, 3))"
    assert pickle.loads(pickle.dumps(s)) == s and copy.copy(s) == s


def test_plain_pairs_become_stars():
    d = PartialDesign(5, 2, [(0, [2, 1]), [1, (4, 3)]])
    assert d.stars == (Star(0, (1, 2)), Star(1, (3, 4)))
    assert all(type(s) is Star for s in d.stars)
    assert d.validate() == []
    star = Star(0, (1, 2))
    assert PartialDesign(5, 2, [star]).stars[0] is star


@pytest.mark.parametrize("text", [
    # k + 1 entries with one repeat would pass as a valid 2-star
    '{"n":5,"k":2,"stars":[{"center":0,"leaves":[1,1,2]}]}',
    # k entries with one repeat would read as too few leaves
    '{"n":6,"k":3,"stars":[{"center":0,"leaves":[2,1,2]}]}',
])
def test_repeated_json_leaf_is_refused(text):
    with pytest.raises(ValueError) as info:
        loads_design(text)
    assert str(info.value) == "star 0: 'leaves' repeats a vertex"
    # the library's Star() still drops repeats
    assert Star(0, [2, 1, 2]) == Star(0, (1, 2))


# ----------------------------------------------------------- admissibility / u


def test_is_admissible_examples():
    assert is_admissible(9, 3)
    assert not is_admissible(8, 3)
    assert is_admissible(9, 4)


@pytest.mark.parametrize("k", range(2, 11))
def test_order_3k_plus_1_admissible_iff_k_odd(k):
    assert is_admissible(3 * k + 1, k) == (k % 2 == 1)


@pytest.mark.parametrize("k", range(3, 9))
def test_order_ak_plus_2_never_admissible(k):
    for a in range(1, 12):
        assert not is_admissible(a * k + 2, k)


def test_design_exists_examples():
    assert design_exists(6, 3)
    assert not design_exists(4, 3)
    assert design_exists(1, 5)


def test_threshold_examples():
    assert threshold_u(9, 3) == 3
    assert threshold_u(7, 3) == 2
    assert threshold_u(10, 2) == 7
    assert threshold_u(4, 2) == 1


def test_threshold_k2_closed_form():
    for n in range(4, 61):
        assert threshold_u(n, 2) == n - 3


def test_threshold_forms_agree_on_grid():
    for k in range(2, 13):
        for n in range(2, 201):
            assert threshold_u(n, k) == threshold_u_ab(n, k)


def test_threshold_positive_and_below_total():
    for k in range(2, 13):
        for n in range(2 * k, 201):
            if not is_admissible(n, k):
                continue
            u = threshold_u(n, k)
            assert u >= 1
            assert k * u < n * (n - 1) // 2


# ------------------------------------------------------------------- validate


def test_validate_ok():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    assert d.validate() == []


def test_validate_duplicate_edge():
    d = PartialDesign(
        6, 3, (Star(0, frozenset({1, 2, 3})), Star(1, frozenset({0, 4, 5})))
    )
    assert d.validate() == ["edge {0,1} covered twice (stars 0 and 1)"]


def test_validate_short_star():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2})),))
    assert d.validate() == ["star 0: has 2 leaves, expected 3"]


def test_validate_reports_all_violations():
    d = PartialDesign(
        6, 3, (Star(0, frozenset({1, 2})), Star(0, frozenset({0, 1, 2})))
    )
    assert d.validate() == [
        "star 0: has 2 leaves, expected 3",
        "star 1: center 0 is also a leaf",
    ]


def test_validate_leaf_out_of_range():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 9})),))
    assert d.validate() == ["star 0: leaf 9 out of range"]


@pytest.mark.parametrize("n", [5, 40])  # byte table first, loop only
def test_validate_words_a_vertex_that_is_not_an_integer(n):
    d = PartialDesign(n, 2, [(0, (1.5, 2)), (2.0, (3, 4))])
    assert d.validate() == [
        "star 0: leaf 1.5 is not an integer",
        "star 1: center 2.0 is not an integer",
    ] == validate_reference(d)
    with pytest.raises(ValueError, match="leaf 1.5 is not an integer"):
        complete(d)


def test_validate_names_first_coverer_of_each_repeat():
    d = PartialDesign(6, 2, (
        Star(0, frozenset({1, 2})),
        Star(1, frozenset({0, 3})),
        Star(0, frozenset({1, 4})),
    ))
    assert d.validate() == [
        "edge {0,1} covered twice (stars 0 and 1)",
        "edge {0,1} covered twice (stars 0 and 2)",
    ]


@pytest.mark.parametrize("bad, problem", [
    (Star(0, frozenset({1, 2, 9})), "leaf 9 out of range"),
    (Star(1, frozenset({1, 2, 3})), "center 1 is also a leaf"),
    (Star(7, frozenset({1, 2, 3})), "center 7 out of range"),
])
def test_invalid_star_covers_no_edges(bad, problem):
    # recorded edges of the invalid stars would repeat between the two
    # copies, and at {0,2} or {1,2} with the valid star after them
    d = PartialDesign(6, 3, (bad, bad, Star(2, frozenset({0, 1, 3}))))
    assert d.validate() == [f"star 0: {problem}", f"star 1: {problem}"]


def test_validate_lists_out_of_range_leaves_ascending():
    d = PartialDesign(6, 4, (Star(0, frozenset({12, -1, 2, 6, -7})),))
    assert d.validate() == [
        "star 0: leaf -7 out of range",
        "star 0: leaf -1 out of range",
        "star 0: leaf 6 out of range",
        "star 0: leaf 12 out of range",
        "star 0: has 5 leaves, expected 4",
    ]


def test_validate_bad_parameters():
    assert PartialDesign(0, 3).validate() == ["n must be >= 1, got 0"]
    assert PartialDesign(5, 1).validate() == ["k must be >= 2, got 1"]


# ------------------------------------------------------------------- leftover


def test_leftover_direct_difference():
    d = PartialDesign(4, 2, (Star(0, frozenset({1, 2})),))
    assert sorted_edges(d.leftover()) == [(0, 3), (1, 2), (1, 3), (2, 3)]


def test_leftover_of_empty_design_is_complete_graph():
    assert PartialDesign(6, 3).leftover().edge_count == 15


def test_leftover_edge_count_identity():
    d = PartialDesign(
        6, 3, (Star(0, frozenset({1, 2, 3})), Star(1, frozenset({2, 3, 4})))
    )
    assert d.leftover().edge_count == 9


def test_repeated_leftover_holds_no_memory():
    # rows and degree tuples built at their exact size come back to the same
    # free lists; tuples resized from a 10-slot guess pile up on the lists of
    # other sizes until a full collection, which a disabled collector never runs
    d = seeded_design(16, 5, 6, seed=11)
    d.leftover().degrees()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(5000):
            d.leftover().degrees()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 1000


def _peak_mb(build) -> float:
    """The tracemalloc peak, in MB, of one call of ``build``."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_large_order_leftover_and_random_design_take_small_memory():
    # one n-bit row per vertex: about n^2 / 8 bytes, 1.1 MB at n = 3001
    assert _peak_mb(lambda: PartialDesign(3001, 3).leftover()) < 5
    assert _peak_mb(lambda: random_design(3001, 3, 10, random.Random(1))) < 5
    # validate() checks a dense design in an n^2 byte table, 90 KB at n = 301,
    # and a sparse one edge by edge, with no table
    full = complete(PartialDesign(301, 3)).design
    assert _peak_mb(full.validate) < 1
    assert _peak_mb(gen_uncompletable(6001, 3).validate) < 2
    # the table is sized from the leaves held, never from a claimed k
    claimed = PartialDesign(5000, 10**6, [Star(0, (1, 2))])
    assert _peak_mb(claimed.validate) < 1
    assert claimed.validate() == ["star 0: has 2 leaves, expected 1000000"]


def test_leftover_rejects_invalid_design():
    d = PartialDesign(
        6, 3, (Star(0, frozenset({1, 2, 3})), Star(2, frozenset({0, 4, 5})))
    )
    with pytest.raises(ValueError):
        d.leftover()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_leftover_edge_count_identity_random(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4])
    n = rng.randint(2 * k, 16)
    m = rng.randint(0, (n - 2) // k)
    d = random_design(n, k, m, rng)
    assert d.validate() == []
    assert d.leftover().edge_count == n * (n - 1) // 2 - k * m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_leftover_is_complete_graph_minus_covered_pairs(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4, 5])
    n = rng.randint(2 * k, 18)
    d = random_design(n, k, rng.randint(0, threshold_u(n, k) + 1), rng)
    covered = {(min(s.center, x), max(s.center, x)) for s in d.stars for x in s.leaves}
    pairs = [e for e in combinations(range(n), 2) if e not in covered]
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    left = d.leftover()
    assert left.rows == tuple(rows)
    assert sorted_edges(left) == pairs


# ---------------------------------------------------------------- reducibility


def test_reducible_doubled_center():
    d = PartialDesign(
        7, 3, (Star(0, frozenset({1, 2, 3})), Star(0, frozenset({4, 5, 6})))
    )
    assert is_reducible(d)
    assert _reduction_vertex(d.stars) == 0


def test_not_reducible_when_every_center_is_a_leaf():
    # six stars in a leaf cycle: center i is a leaf of the star at i-1
    stars = tuple(
        Star(i, frozenset({(i + 1) % 6, 6, 7})) for i in range(6)
    )
    d = PartialDesign(13, 3, stars)
    assert d.validate() == []
    assert len(d.stars) == threshold_u(13, 3)
    assert not is_reducible(d)
    assert _reduction_vertex(d.stars) is None
    assert _reduction_vertex(()) is None


def test_not_reducible_below_threshold_star_count():
    d = PartialDesign(7, 3, (Star(0, frozenset({1, 2, 3})),))
    assert d.validate() == []
    assert not is_reducible(d)


def test_not_reducible_when_order_not_one_mod_k():
    d = seeded_design(9, 3, 3, seed=11)
    assert d.validate() == []
    assert not is_reducible(d)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_order_2k_plus_1_threshold_designs_always_reducible(k):
    n = 2 * k + 1
    u = threshold_u(n, k)
    for seed in range(40):
        d = seeded_design(n, k, u, seed=seed)
        assert d.validate() == []
        assert is_reducible(d)


# ------------------------------------------------------------- random designs


def test_random_design_deterministic():
    a = random_design(12, 3, 4, random.Random(99))
    b = random_design(12, 3, 4, random.Random(99))
    assert a == b
    assert len(a.stars) == 4
    assert a.validate() == []


def test_random_design_rejects_unreachable_count():
    with pytest.raises(ValueError):
        random_design(4, 3, 3, random.Random(0))


# ----------------------------------------------------------------------- JSON


def test_doc_round_trip():
    d = seeded_design(9, 3, 3, seed=5)
    assert design_from_doc(design_to_doc(d)) == d
    assert loads_design(dumps_design(d)) == d


def test_doc_leaves_sorted_ascending():
    d = PartialDesign(6, 3, (Star(0, frozenset({3, 1, 2})),))
    doc = design_to_doc(d)
    assert doc["stars"] == [{"center": 0, "leaves": [1, 2, 3]}]


def test_doc_ignores_unknown_keys():
    doc = {
        "n": 6,
        "k": 3,
        "comment": "extra",
        "stars": [{"center": 0, "leaves": [1, 2, 3], "weight": 7}],
    }
    d = design_from_doc(doc)
    assert d == PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))


def test_canonical_dumps_is_byte_stable():
    assert canonical_dumps({"b": 1, "a": [2, 1]}) == '{"a":[2,1],"b":1}'
    d = seeded_design(9, 3, 2, seed=1)
    assert dumps_design(d) == canonical_dumps(design_to_doc(d))
    assert json.loads(dumps_design(d)) == design_to_doc(d)


def test_from_doc_rejects_garbage():
    with pytest.raises(ValueError):
        design_from_doc(["not", "a", "mapping"])
    with pytest.raises(ValueError):
        design_from_doc({"n": 6})
    with pytest.raises(ValueError):
        design_from_doc({"n": 6, "k": 3, "stars": [{"center": 0}]})
