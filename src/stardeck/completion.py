"""Completion pipeline for partial k-star designs.

Any partial design of admissible order n >= 2k with at most u(n, k) stars is
completable, and this module actually builds the completion: pad up to the
threshold, peel off a reducible vertex when possible, then dispatch on the
order regime (direct 2-star pairing for k = 2, relabeling a canonical design
at n = 2k, a closed-form precentral function for small orders, the repaired
minimal precentral function beyond).  Designs over the threshold are
attempted opportunistically and may come back certified-impossible or
unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

from .designs import (
    Graph,
    PartialDesign,
    Star,
    _star,
    design_to_doc,
    is_admissible,
    threshold_u,
)
from .extremal import blocked_edge
from .oracle import decompose_exhaustive, default_budget
from .precentral import Precentral, find_bad, minimal, suitable
from .realize import Infeasible, construct, realize


class CompletionDefect(RuntimeError):
    """An in-guarantee input hit an internal dead end; this is a bug, not a
    property of the input."""


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of :func:`complete`.

    ``outcome`` is "completed", "impossible", or "unknown".  For impossible
    results ``reason`` is one of "not-admissible", "order-too-small",
    "blocked-edge", "odd-component", or "oracle", with ``certificate``
    carrying the evidence where one exists.
    """

    outcome: str
    design: PartialDesign | None = None
    reason: str | None = None
    certificate: dict | None = None
    trace: tuple[str, ...] = field(default_factory=tuple)

    def to_doc(self) -> dict:
        doc: dict = {"outcome": self.outcome, "trace": list(self.trace)}
        if self.design is not None:
            doc["design"] = design_to_doc(self.design)
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


def pad_to_threshold(design: PartialDesign) -> PartialDesign:
    """Greedily add stars until the design has exactly u(n, k) of them.

    Each added star takes the smallest-index vertex with at least k uncovered
    incident edges as center and its k smallest uncovered neighbors as
    leaves.  Below the threshold such a vertex always exists.
    """
    n, k = design.n, design.k
    if k < 2 or not is_admissible(n, k) or n < 2 * k:
        raise ValueError("padding requires k >= 2 and an admissible order n >= 2k")
    target = threshold_u(n, k)
    if len(design.stars) > target:
        raise ValueError(
            f"design already has {len(design.stars)} > u = {target} stars"
        )
    rows = design.leftover().rows
    # uncovered degrees; the added stars' edges {a, b}, a < b, keyed by a * n + b
    degree = list(map(len, rows))
    taken: set[int] = set()
    # rows[v][:start[v]] are all taken, since v takes its smallest free partners
    start = [0] * n
    stars = list(design.stars)
    center = 0
    while len(stars) < target:
        # degrees never rise, so the smallest vertex with room never falls
        while center < n and degree[center] < k:
            center += 1
        if center == n:
            raise CompletionDefect(
                f"padding stuck at {len(stars)} of {target} stars (n={n}, k={k})"
            )
        row, i = rows[center], start[center]
        leaves: list[int] = []
        while len(leaves) < k:
            leaf = row[i]
            i += 1
            if (center * n + leaf if center < leaf else leaf * n + center) not in taken:
                leaves.append(leaf)
        start[center] = i
        for leaf in leaves:
            taken.add(center * n + leaf if center < leaf else leaf * n + center)
            degree[leaf] -= 1
        degree[center] -= k
        stars.append(_star(center, tuple(leaves)))
    return PartialDesign(n, k, tuple(stars))


def _relabel(stars: list[Star], f: Callable[[int], int]) -> None:
    """Rename every vertex v of the listed stars to f(v), in place.

    f must be increasing, which keeps each star's leaves ascending.  Each
    old star is released as its replacement goes in.
    """
    for i, (center, leaves) in enumerate(stars):
        stars[i] = _star(f(center), tuple([*map(f, leaves)]))


def reduce_design(design: PartialDesign) -> tuple[PartialDesign, int, tuple[Star, ...]]:
    """Remove the smallest vertex that centers stars but is a leaf of none.

    Only defined for reducible designs (order 1 mod k, exactly u stars, such
    a vertex present).  Returns the relabeled smaller design, the removed
    vertex, and its stars under the original labels.  No remaining star
    touches the removed vertex, so dropping it is clean.
    """
    if not design.is_reducible():
        raise ValueError("design is not reducible")
    x = design.reduction_vertex()
    assert x is not None
    removed = tuple(s for s in design.stars if s.center == x)
    kept = [s for s in design.stars if s.center != x]
    _relabel(kept, lambda v: v if v < x else v - 1)
    smaller = PartialDesign(design.n - 1, design.k, kept)
    return smaller, x, removed


def decompose_2stars(graph: Graph) -> list[Star] | Infeasible:
    """Decompose a graph into 2-stars (paths of two edges), if possible.

    Possible exactly when every connected component has an even number of
    edges.  Construction: per component, root a spanning tree at the smallest
    vertex and sweep vertices in reverse breadth-first order, pairing each
    vertex's unused non-parent edges two at a time and borrowing the parent
    edge when one is left over.
    """
    n = graph.n
    # paired edges {a, b}, a < b, keyed by a * n + b
    used: set[int] = set()
    seen = [False] * n
    stars: list[Star] = []
    for root in range(n):
        if seen[root] or not graph.neighbors(root):
            continue
        order = [root]
        parent: dict[int, int | None] = {root: None}
        seen[root] = True
        qi = 0
        while qi < len(order):
            w = order[qi]
            qi += 1
            for y in graph.neighbors(w):
                if not seen[y]:
                    seen[y] = True
                    parent[y] = w
                    order.append(y)
        comp_edge_count = sum(graph.degree(v) for v in order) // 2
        if comp_edge_count % 2 != 0:
            return Infeasible("odd-component", frozenset(order))
        for v in reversed(order):
            par = parent[v]
            pending = [
                y for y in graph.neighbors(v)
                if y != par and (v * n + y if v < y else y * n + v) not in used
            ]
            if len(pending) % 2 == 1:
                assert par is not None  # root parity is even by construction
                pending.append(par)
            for i in range(0, len(pending), 2):
                y1, y2 = pending[i], pending[i + 1]
                used.add(v * n + y1 if v < y1 else y1 * n + v)
                used.add(v * n + y2 if v < y2 else y2 * n + v)
                stars.append(Star(v, (y1, y2)))
    assert len(used) == graph.edge_count
    return stars


def small_order_precentral(design: PartialDesign) -> Precentral:
    """Closed-form realisable precentral function for small orders.

    Covers non-reducible designs with exactly u(n, k) stars, k >= 3, in the
    range 2k+1 < n <= 3k+1 (the top order only at odd k, where it is
    admissible).  Centers get 2 minus their star count; a computed number of
    highest-leftover-degree non-centers get 2; everyone else gets 1.
    """
    n, k = design.n, design.k
    if k < 3:
        raise ValueError("small_order_precentral requires k >= 3")
    if not is_admissible(n, k):
        raise ValueError(f"n={n} is not admissible for k={k}")
    if not (2 * k + 1 < n <= 3 * k + 1):
        raise ValueError(f"order n={n} outside range 2k+1 < n <= 3k+1 for k={k}")
    if n == 3 * k + 1 and k % 2 == 0:
        raise ValueError(f"order n=3k+1 needs odd k, got k={k}")
    if len(design.stars) != threshold_u(n, k):
        raise ValueError("design must have exactly u(n, k) stars")
    if design.is_reducible():
        raise ValueError("design must be non-reducible")
    leftover = design.leftover()
    central = design.central_function()
    centers = [v for v in range(n) if central[v] >= 1]
    if n <= 3 * k:
        b = n - 2 * k
        assert len(centers) in (2, 3)
        h = 1 if len(centers) == 2 else 0
        assert (b * (b - 1)) % (2 * k) == 0
        boosted = b + h + b * (b - 1) // (2 * k) - 4
    else:
        assert len(centers) in (3, 4)
        h = 1 if len(centers) == 3 else 0
        boosted = h + (3 * k - 7) // 2
    assert 0 <= boosted <= n - len(centers)
    rest = sorted(
        (v for v in range(n) if central[v] == 0),
        key=lambda v: (-leftover.degree(v), v),
    )
    chosen = set(rest[:boosted])
    values = [
        2 - central[v] if central[v] >= 1 else (2 if v in chosen else 1)
        for v in range(n)
    ]
    assert all(v >= 0 for v in values)
    return Precentral.of_graph(leftover, k, values)


@lru_cache(maxsize=None)
def _canonical_design(k: int) -> tuple[Star, ...]:
    """A fixed full k-star design of order 2k, built once per k."""
    graph = Graph.complete(2 * k)
    result = realize(graph, k, minimal(graph, k))
    if isinstance(result, Infeasible):
        raise CompletionDefect(
            f"canonical order-{2 * k} design failed to realize (k={k})"
        )
    return tuple(result)


def _relabel_canonical(design: PartialDesign) -> list[Star]:
    """Map the canonical order-2k design onto the one given star.

    Returns the other stars of the mapped design; the given star is the
    image of the canonical design's first star.
    """
    n, k = design.n, design.k
    star = design.stars[0]
    canon = _canonical_design(k)
    anchor = canon[0]

    def order(s: Star) -> list[int]:
        # the center, the leaves ascending, then every other vertex ascending
        center, leaves = s
        return [center, *leaves, *(v for v in range(n) if v != center and v not in leaves)]

    to = dict(zip(order(anchor), order(star))).__getitem__
    # the map is not increasing, so the leaves are sorted again
    return [Star(to(center), map(to, leaves)) for center, leaves in canon[1:]]


def _valid_quick(n: int, k: int, stars: tuple[Star, ...]) -> bool:
    """True iff ``PartialDesign(n, k, stars).validate()`` finds nothing.

    Marks each covered edge {a, b}, a < b, at a * n + b of an n-by-n byte
    table whose diagonal is marked beforehand.  A center that is also a leaf
    hits the diagonal and a repeated edge hits its own mark, so either way
    fewer marks are set than n plus the leaf count.  Range checks read only
    the first and last leaf, since leaves are ascending.
    """
    if n < 1 or k < 2:
        return False
    seen = bytearray(n * n)
    seen[::n + 1] = b"\x01" * n
    for center, leaves in stars:
        if len(leaves) != k or not (0 <= center < n and 0 <= leaves[0] and leaves[-1] < n):
            return False
        for leaf in leaves:
            seen[center * n + leaf if center < leaf else leaf * n + center] = 1
    return seen.count(1) == n + k * len(stars)


def _merged(n: int, k: int, stars: Iterable[Star],
            trace: list[str]) -> CompletionResult:
    """Accept ``stars`` as a full design of order n; every construction ends here.

    A valid design covers k distinct edges per star, so it covers all of K_n
    exactly when k times its star count is C(n, 2).  The design is checked in
    a byte table; ``validate()`` runs only to word the defect when that check
    fails.
    """
    full = PartialDesign(n, k, tuple(stars))
    if not _valid_quick(n, k, full.stars):
        violations = full.validate()
        if violations:
            raise CompletionDefect("merged design invalid: " + "; ".join(violations))
    if k * len(full.stars) != n * (n - 1) // 2:
        raise CompletionDefect("merged design does not cover every edge")
    trace.append("merged")
    return CompletionResult("completed", full, trace=tuple(trace))


def _check_degree_facts(leftover: Graph, k: int) -> None:
    # facts that hold for leftovers of threshold designs in the large regime;
    # violations mean the caller dispatched a graph it should not have
    degrees = leftover.degrees()
    low = [v for v in range(leftover.n) if degrees[v] <= k]
    if len(low) > 1:
        raise CompletionDefect(
            f"expected at most one leftover vertex of degree <= k, found {low}"
        )
    if sum(1 for d in degrees if d < 2 * k) < 3:
        return  # a defect needs an adjacent pair plus a third such vertex
    for a, row in enumerate(leftover.rows):
        if degrees[a] >= 2 * k:
            continue
        for b in row:
            if b > a and degrees[b] < 2 * k:
                others = [
                    v for v in range(leftover.n)
                    if v not in (a, b) and degrees[v] < 2 * k
                ]
                if others:
                    raise CompletionDefect(
                        f"adjacent low-degree pair ({a},{b}) plus further "
                        f"low-degree vertices {others} in leftover"
                    )


def complete(
    design: PartialDesign,
    *,
    oracle_budget: int | None = None,
    oracle_max_n: int = 12,
) -> CompletionResult:
    """Complete the design to a full k-star design, or certify why not.

    Designs with at most u(n, k) stars on admissible orders n >= 2k always
    come back "completed" (anything else raises CompletionDefect).  Inputs
    over the threshold are attempted: the result may be "completed", a
    certified "impossible", or "unknown" when only the exhaustive oracle
    could decide and the order or node budget rules it out.
    """
    design._require_valid()
    n, k = design.n, design.k
    budget = default_budget() if oracle_budget is None else oracle_budget
    trace: list[str] = ["validated"]
    if n == 1:
        trace.append("trivial-order-1")
        return CompletionResult("completed", design, trace=tuple(trace))
    if not is_admissible(n, k):
        return CompletionResult(
            "impossible", reason="not-admissible", trace=tuple(trace)
        )
    if n < 2 * k:
        return CompletionResult(
            "impossible", reason="order-too-small", trace=tuple(trace)
        )
    if len(design.stars) > threshold_u(n, k):
        return _attempt_over_threshold(design, budget, oracle_max_n, trace)
    return _merged(n, k, _completed_stars(design, trace), trace)


def _completed_stars(design: PartialDesign, trace: list[str]) -> list[Star]:
    """The stars of a full design containing the given one, unchecked.

    The design must be valid, of admissible order n >= 2k, with at most
    u(n, k) stars.  Each step taken is appended to ``trace``; a reduced
    design's own steps go into one ``recurse{...}`` entry.
    """
    n, k = design.n, design.k
    u = threshold_u(n, k)
    if len(design.stars) < u:
        trace.append(f"pad+{u - len(design.stars)}")
        design = pad_to_threshold(design)

    if design.is_reducible():
        smaller, x, removed = reduce_design(design)
        trace.append(f"reduce@{x}")
        steps: list[str] = []
        stars = _completed_stars(smaller, steps)
        trace.append("recurse{" + ";".join(steps) + "}")
        # skip x; an out-of-range label stays out of range for the merge check
        _relabel(stars, lambda v: v + (v >= x))
        stars.extend(removed)
        # the removed vertex's uncovered edges, in k-sized ascending blocks
        covered = {x}.union(*(leaves for _, leaves in removed))
        free = tuple([v for v in range(n) if v not in covered])
        assert len(free) % k == 0
        for i in range(0, len(free), k):
            stars.append(_star(x, free[i:i + k]))
        return stars

    if k == 2:
        pairing = decompose_2stars(design.leftover())
        if isinstance(pairing, Infeasible):
            raise CompletionDefect(
                "threshold design leftover has an odd component: "
                f"{sorted(pairing.vertices)}"
            )
        trace.append("construction=2star")
        return [*design.stars, *pairing]

    if n == 2 * k:
        trace.append("construction=relabel-2k")
        return [*design.stars, *_relabel_canonical(design)]

    if n == 2 * k + 1:
        # two stars at order 2k+1 always admit a reduction vertex: a doubled
        # center uses all its edges, and distinct centers cannot both be
        # leaves of each other's star without reusing their joining edge
        raise CompletionDefect(
            "order 2k+1 threshold design was not reducible; unreachable"
        )

    leftover = design.leftover()
    if n <= 3 * k + 1:
        trace.append("construction=small-order")
        p = small_order_precentral(design)
    else:
        trace.append("construction=suitable")
        _check_degree_facts(leftover, k)
        p = suitable(leftover, k)
        residue = find_bad(p, leftover, k)
        if residue is not None:
            raise CompletionDefect(
                f"suitable function still flawed on in-scope leftover: {residue}"
            )
    stars = realize(leftover, k, p)
    if isinstance(stars, Infeasible):
        raise CompletionDefect(
            f"{trace[-1]}: realization infeasible, witness subset "
            f"{sorted(stars.vertices)} has negative supply-demand balance"
        )
    del leftover, p  # free the O(n^2) leftover before the full star list is built
    return [*design.stars, *stars]


def _attempt_over_threshold(
    design: PartialDesign, budget: int, oracle_max_n: int, trace: list[str]
) -> CompletionResult:
    """Best-effort handling of designs with more than u(n, k) stars."""
    n, k = design.n, design.k
    trace.append("over-threshold-attempt")
    leftover = design.leftover()
    cert = blocked_edge(leftover, k)
    if cert is not None:
        trace.append("certificate=blocked-edge")
        return CompletionResult(
            "impossible",
            reason="blocked-edge",
            certificate=cert.to_doc(),
            trace=tuple(trace),
        )
    if k == 2:
        pairing = decompose_2stars(leftover)
        if isinstance(pairing, Infeasible):
            # even edge count per component characterizes 2-star
            # decomposability, so this is a certificate, not a give-up
            trace.append("certificate=odd-component")
            return CompletionResult(
                "impossible",
                reason="odd-component",
                certificate={"odd_component": sorted(pairing.vertices)},
                trace=tuple(trace),
            )
        trace.append("construction=2star")
        return _merged(n, k, [*design.stars, *pairing], trace)
    built = construct(leftover, k)
    if built is not None:
        stars, repairs = built
        if repairs:
            trace.append(f"repair+{repairs}")
        trace.append("construction=suitable")
        return _merged(n, k, [*design.stars, *stars], trace)
    trace.append("realize-infeasible")
    if n > oracle_max_n:
        trace.append("oracle=out-of-reach")
        return CompletionResult(
            "unknown", reason="oracle-out-of-reach", trace=tuple(trace)
        )
    oracle = decompose_exhaustive(leftover, k, budget=budget)
    if oracle.status == "found":
        trace.append("construction=oracle")
        assert oracle.stars is not None
        return _merged(n, k, [*design.stars, *oracle.stars], trace)
    if oracle.status == "none":
        trace.append("certificate=oracle")
        return CompletionResult(
            "impossible",
            reason="oracle",
            certificate={"oracle_nodes": oracle.nodes},
            trace=tuple(trace),
        )
    trace.append("oracle=budget-exceeded")
    return CompletionResult(
        "unknown", reason="oracle-budget-exceeded", trace=tuple(trace)
    )
