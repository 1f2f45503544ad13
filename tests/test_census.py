"""Census: every labeled design at or below the threshold completes.

At the smallest orders the partial designs with at most u(n, k) stars can
be listed in full.  Each one must come back completed, as a valid full
design that contains it.  The census checks outcomes, not which stars a
construction picks, so it holds whatever stars the constructions build.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from stardeck import Graph, PartialDesign, Star, complete, threshold_u

from conftest import verify_decomposition

# labeled designs per star count 0..u(n, k)
CENSUS = {
    (4, 2): [1, 12],
    (5, 2): [1, 30, 285],
    (6, 3): [1, 60],
    (7, 3): [1, 140, 6370],
    (8, 4): [1, 280],
    (10, 5): [1, 1260],
}


def _labeled_designs(n: int, k: int, m: int) -> list[PartialDesign]:
    """Every partial k-star design of order n with exactly m stars."""
    stars = [
        Star(center, leaves)
        for center in range(n)
        for leaves in combinations([v for v in range(n) if v != center], k)
    ]
    edges = [{frozenset((c, leaf)) for leaf in leaves} for c, leaves in stars]
    return [
        PartialDesign(n, k, tuple(stars[i] for i in chosen))
        for chosen in combinations(range(len(stars)), m)
        if len(set().union(*(edges[i] for i in chosen))) == k * m
    ]


@pytest.mark.parametrize("n, k", list(CENSUS))
def test_every_labeled_design_at_or_below_u_completes(n, k):
    u = threshold_u(n, k)
    full_graph = Graph(n, combinations(range(n), 2))
    counts, traces = [], set()
    for m in range(u + 1):
        designs = _labeled_designs(n, k, m)
        counts.append(len(designs))
        for d in designs:
            r = complete(d)
            assert r.outcome == "completed", (d, r)
            assert r.design.n == n and r.design.k == k
            assert r.design.validate() == []
            assert verify_decomposition(full_graph, k, r.design.stars), d
            assert set(d.stars) <= set(r.design.stars), d
            traces.add(r.trace)
    assert counts == CENSUS[n, k]
    if n == 2 * k and k >= 3:
        assert all("construction=relabel-2k" in t for t in traces)
    if (n, k) == (7, 3):
        # order 2k + 1 always reduces, to order 2k with one vertex isolated
        assert all(
            any(e.startswith("recurse{") and "construction=relabel-2k" in e for e in t)
            for t in traces
        )
