"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from hypothesis import strategies as st

from stardeck import Graph, PartialDesign, Precentral, Star, random_design, threshold_u
from stardeck.precentral import VertexFunction, vertex_values


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
        kept = sorted_edges(g)[:-extra]
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


def is_reducible(design: PartialDesign) -> bool:
    """True iff the design admits the one-vertex reduction step.

    Requires a valid design of order n = 1 (mod k) with exactly u(n, k)
    stars and a vertex that centers at least one star while being a leaf
    of none.
    """
    assert design.validate() == []
    n, k = design.n, design.k
    if n % k != 1 or n < 2 or len(design.stars) != threshold_u(n, k):
        return False
    leaves = {v for _, star_leaves in design.stars for v in star_leaves}
    return any(center not in leaves for center, _ in design.stars)


# --- reference checkers: independent of the constructions they check --------

def neighbors(graph: Graph, v: int) -> list[int]:
    """v's neighbors in ascending order, read from its row bit by bit."""
    row = graph.rows[v]
    return [y for y in range(graph.n) if row >> y & 1]


def sorted_edges(graph: Graph) -> list[tuple[int, int]]:
    """The edges in ascending order, as a list the caller may keep."""
    return [(a, b) for a in range(graph.n) for b in neighbors(graph, a) if a < b]


def delta_t(graph: Graph, k: int, p: VertexFunction, subset: Iterable[int]) -> int:
    """Edge supply minus star demand for a vertex subset.

    Supply is the number of edges with at least one endpoint in the subset;
    demand is k times the subset's total p-value.  A negative value certifies
    that p is not realisable.
    """
    t = frozenset(subset)
    if not t:
        raise ValueError("subset must be nonempty")
    if not all(0 <= x < graph.n for x in t):
        raise ValueError("subset contains out-of-range vertices")
    if len(t) == graph.n:
        raise ValueError("subset must be a proper subset of the vertices")
    values = vertex_values(p, graph.n)
    # an edge with both ends in t is counted from its lower end only
    supply = sum(1 for x in t for y in neighbors(graph, x) if x < y or y not in t)
    demand = k * sum(values[x] for x in t)
    return supply - demand


def subset_check(
    graph: Graph, k: int, p: VertexFunction, max_n: int = 20
) -> tuple[int, ...] | None:
    """Exhaustive supply-demand audit over all nonempty proper vertex subsets.

    Returns the first subset (smallest size, then lexicographic) whose demand
    exceeds its incident edge supply, or None when every subset passes; the
    latter is equivalent to p being realisable.  Guarded to small orders.
    """
    if graph.n > max_n:
        raise ValueError(f"subset_check is exponential; n={graph.n} > {max_n}")
    values = Precentral.of_graph(graph, k, vertex_values(p, graph.n)).values
    for size in range(1, graph.n):
        for subset in combinations(range(graph.n), size):
            if delta_t(graph, k, values, subset) < 0:
                return subset
    return None


def validate_reference(design: PartialDesign) -> list[str]:
    """Every rule violation of the design, worded and ordered as
    ``PartialDesign.validate()`` words them, found edge by edge with one dict
    entry per covered edge and no byte table."""
    n, k = design.n, design.k
    out: list[str] = []
    if n < 1:
        out.append(f"n must be >= 1, got {n}")
    if k < 2:
        out.append(f"k must be >= 2, got {k}")
    # a covered edge {a, b}, a < b, is keyed by the int a * n + b
    covered: dict[int, int] = {}
    for i, (center, leaves) in enumerate(design.stars):
        ok = 0 <= center < n
        if not ok:
            out.append(f"star {i}: center {center} out of range")
        if leaves and not (0 <= leaves[0] and leaves[-1] < n):
            for leaf in leaves:
                if not (0 <= leaf < n):
                    out.append(f"star {i}: leaf {leaf} out of range")
            ok = False
        if center in leaves:
            out.append(f"star {i}: center {center} is also a leaf")
            ok = False
        if len(leaves) != k:
            out.append(f"star {i}: has {len(leaves)} leaves, expected {k}")
        if not ok:
            continue
        for leaf in leaves:
            key = center * n + leaf if center < leaf else leaf * n + center
            first = covered.setdefault(key, i)
            if first != i:
                a, b = divmod(key, n)
                out.append(
                    f"edge {{{a},{b}}} covered twice (stars {first} and {i})"
                )
    return out


def verify_decomposition(
    graph: Graph,
    k: int,
    stars: list[Star] | tuple[Star, ...],
    p: VertexFunction | None = None,
) -> bool:
    """True iff the stars exactly partition the graph's edges into k-stars.

    When p is given, also requires the center counts to match it.
    Never raises on malformed stars; they simply fail the check.
    """
    # each vertex's edges not yet covered by a star
    uncovered = [set(neighbors(graph, v)) for v in range(graph.n)]
    counts = [0] * graph.n
    for center, leaves in stars:
        if not (0 <= center < graph.n):
            return False
        if len(leaves) != k or len(set(leaves)) != k or center in leaves:
            return False
        if not all(0 <= leaf < graph.n for leaf in leaves):
            return False
        row = uncovered[center]
        if not row.issuperset(leaves):
            return False
        row.difference_update(leaves)
        for leaf in leaves:
            uncovered[leaf].remove(center)
        counts[center] += 1
    if any(uncovered):
        return False
    if p is not None:
        try:
            if tuple(counts) != vertex_values(p, graph.n):
                return False
        except ValueError:
            return False
    return True
