"""Tests for extremal uncompletable designs and blocked-edge certificates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from stardeck import (
    PartialDesign,
    Star,
    check_blocked_edge,
    complete,
    decompose_exhaustive,
    gen_uncompletable,
    is_admissible,
    threshold_u,
)
from stardeck.extremal import blocked_edge

from conftest import graphs, sorted_edges


def test_gen_order_six_exact_shape():
    d = gen_uncompletable(6, 3)
    assert d.stars == (
        Star(0, frozenset({2, 3, 4})),
        Star(1, frozenset({2, 3, 4})),
    )
    assert len(d.stars) == threshold_u(6, 3) + 1


def test_gen_order_seven_uses_helper_star():
    # n ≡ 1 (mod k): a third center adopts both blocked endpoints as leaves
    d = gen_uncompletable(7, 3)
    assert d.stars[0] == Star(2, frozenset({0, 1, 3}))
    assert len(d.stars) == threshold_u(7, 3) + 1
    left = d.leftover()
    assert len(left.rows[0]) == 2 and len(left.rows[1]) == 2


def test_gen_order_nine_two_stars_per_center():
    d = gen_uncompletable(9, 3)
    assert len(d.stars) == 4
    centers = [s.center for s in d.stars]
    assert centers.count(0) == 2 and centers.count(1) == 2


def test_gen_rejects_bad_orders():
    with pytest.raises(ValueError):
        gen_uncompletable(1, 3)
    with pytest.raises(ValueError):
        gen_uncompletable(5, 3)
    with pytest.raises(ValueError):
        gen_uncompletable(13, 4)


def test_certificate_fields_and_doc():
    cert = check_blocked_edge(gen_uncompletable(6, 3))
    assert cert is not None
    assert cert.edge == (0, 1)
    assert cert.degrees == (2, 2)
    assert cert.to_doc() == {"blocked_edge": [0, 1], "degrees": [2, 2]}


def test_no_certificate_on_completable_design():
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    assert check_blocked_edge(d) is None


def test_no_certificate_on_full_design():
    full = complete(PartialDesign(6, 3)).design
    assert check_blocked_edge(full) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5), graphs(max_n=14))
def test_blocked_edge_is_the_first_in_a_sorted_edge_scan(k, g):
    degrees = g.degrees()
    first = next(((a, b) for a, b in sorted_edges(g)
                  if degrees[a] < k and degrees[b] < k), None)
    cert = blocked_edge(g, k)
    if first is None:
        assert cert is None
    else:
        assert cert.edge == first
        assert cert.degrees == (degrees[first[0]], degrees[first[1]])


def test_generated_designs_certified_on_grid():
    # the construction's only check: every order the over-threshold
    # benchmark generates
    seen = 0
    for k in range(2, 7):
        for n in range(2, 122):
            if not is_admissible(n, k):
                continue
            d = gen_uncompletable(n, k)
            assert d.validate() == []
            assert len(d.stars) == threshold_u(n, k) + 1
            cert = check_blocked_edge(d)
            assert cert is not None and cert.edge == (0, 1)
            a, b = cert.edge
            left = d.leftover()
            assert b in left.rows[a]
            assert 1 <= cert.degrees[0] <= k - 1
            assert 1 <= cert.degrees[1] <= k - 1
            assert cert.degrees == (len(left.rows[a]), len(left.rows[b]))
            seen += 1
    assert seen >= 250


@pytest.mark.parametrize(
    "n,k",
    [(4, 2), (5, 2), (8, 2), (9, 2), (3, 3), (4, 3), (6, 3), (7, 3), (9, 3)],
)
def test_oracle_confirms_uncompletability(n, k):
    d = gen_uncompletable(n, k)
    assert decompose_exhaustive(d.leftover(), d.k).status == "none"
    r = complete(d)
    assert r.outcome == "impossible"
