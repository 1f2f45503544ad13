"""Tests for extremal uncompletable designs and blocked-edge certificates."""

from __future__ import annotations

from collections import Counter

import pytest

from stardeck import (
    PartialDesign,
    Star,
    check_blocked_edge,
    complete,
    decompose_exhaustive,
    gen_uncompletable,
    has_completion,
    is_admissible,
    threshold_u,
)
from stardeck.extremal import blocked_edge

from conftest import seeded_design, sorted_edges


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


def _leftover_scan(design):
    """The reference: the first edge of the design's leftover, in sorted
    order, whose ends both have leftover degree below k, with those
    degrees, or None."""
    left = design.leftover()
    degrees = left.degrees()
    for a, b in sorted_edges(left):
        if degrees[a] < design.k and degrees[b] < design.k:
            return (a, b), (degrees[a], degrees[b])
    return None


def _scanned_designs():
    """Seeded designs with u + 1 to u + 3 stars at every admissible order
    2k <= n <= 40, the extremal design at every admissible order below 122,
    and the empty designs of order n <= k, for k = 2..6."""
    for k in range(2, 7):
        for n in range(2 * k, 41):
            if not is_admissible(n, k):
                continue
            for extra in (1, 2, 3):
                for seed in (0, 1):
                    try:
                        yield seeded_design(n, k, threshold_u(n, k) + extra,
                                            seed=1000 * n + 10 * k + seed)
                    except ValueError:  # no room for another star
                        pass
        for n in range(2, 122):
            if is_admissible(n, k):
                yield gen_uncompletable(n, k)
        for n in range(1, k + 1):
            yield PartialDesign(n, k)


def test_blocked_edge_is_the_first_in_a_sorted_edge_scan():
    found = Counter()
    for d in _scanned_designs():
        cert = blocked_edge(d)
        ref = _leftover_scan(d)
        if ref is None:
            assert cert is None, d
        else:
            assert (cert.edge, cert.degrees) == ref, d
        found[cert is not None] += 1
    # 289 blocked, 16 of them seeded, and 443 not
    assert found[True] >= 280 and found[False] >= 400, found


def _no_leftover(self):
    raise AssertionError("built the leftover graph")


def test_large_order_refutations_build_no_leftover(monkeypatch):
    monkeypatch.setattr(PartialDesign, "leftover", _no_leftover)
    monkeypatch.setattr(PartialDesign, "_leftover", _no_leftover)
    d = gen_uncompletable(30001, 3)
    doc = {"blocked_edge": [0, 1], "degrees": [2, 2]}
    r = complete(d)
    assert (r.outcome, r.reason, r.certificate) == ("impossible", "blocked-edge", doc)
    assert has_completion(d) == "no"
    assert check_blocked_edge(d).to_doc() == doc
    # 20000 is not admissible for k = 3: C(20000, 2) = 199,990,000 = 1 mod 3
    assert has_completion(PartialDesign(20000, 3)) == "no"


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
