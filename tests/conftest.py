"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from stardeck import Graph, PartialDesign, random_design, threshold_u


@st.composite
def graphs(draw: st.DrawFn, min_n: int = 1, max_n: int = 10) -> Graph:
    """An arbitrary simple graph on 0..n-1."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return Graph.from_edges(n, edges)


@st.composite
def graphs_divisible(draw: st.DrawFn, k: int, min_n: int = 1, max_n: int = 10) -> Graph:
    """A simple graph whose edge count is a multiple of k."""
    g = draw(graphs(min_n=min_n, max_n=max_n))
    extra = g.edge_count % k
    if extra:
        kept = g.sorted_edges()[:-extra]
        g = Graph.from_edges(g.n, kept)
    return g


def threshold_u_ab(n: int, k: int) -> int:
    """u(n, k) from the decomposition n = a*k + b, b in 1..k: 2a - 2 when
    b = 1, else 2a - 1.  An independent form to cross-check threshold_u."""
    b = n % k or k
    a = (n - b) // k
    return 2 * a - 2 if b == 1 else 2 * a - 1


def seeded_design(n: int, k: int, stars: int, seed: int) -> PartialDesign:
    """A reproducible random partial design with the given star count."""
    return random_design(n, k, stars, random.Random(seed))


def seeded_design_at_most_u(n: int, k: int, seed: int) -> PartialDesign:
    """A reproducible random design with star count uniform in [0, u(n,k)]."""
    rng = random.Random(seed)
    m = rng.randint(0, max(threshold_u(n, k), 0))
    return random_design(n, k, m, rng)
