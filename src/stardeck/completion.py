"""Completion pipeline for partial k-star designs.

Any partial design of admissible order n >= 2k with at most u(n, k) stars is
completable, and this module actually builds the completion: pad up to the
threshold, peel off a reducible vertex when possible, then dispatch on the
order regime (direct 2-star pairing for k = 2, the rotational design at
n = 2k, a closed-form precentral function for small orders, the repaired
minimal precentral function beyond).  Every completion is accepted only
after a merge check.  Designs over the threshold are decided as
``has_completion`` decides them and may come back certified-impossible or,
when the search budget runs out, unknown.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .designs import (
    Graph,
    PartialDesign,
    Star,
    _reduction_vertex,
    _star,
    design_to_doc,
    is_admissible,
    threshold_u,
)
from .oracle import DEFAULT_BUDGET, decide
from .precentral import Precentral, suitable
from .realize import Infeasible, decompose_2stars, realize


class CompletionDefect(RuntimeError):
    """An in-guarantee input hit an internal dead end; this is a bug, not a
    property of the input."""


class CompletionResult(NamedTuple):
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
    trace: tuple[str, ...] = ()

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
    stars = [*design.stars]
    _pad(k, [*design.leftover().rows], stars, target, [])
    return PartialDesign(n, k, tuple(stars))


def _pad(k: int, rows: list[tuple[int, ...]], stars: list[Star], target: int,
         trace: list[str]) -> None:
    """The greedy padding of :func:`pad_to_threshold`, on leftover rows.

    Appends stars to ``stars`` until there are ``target`` of them, and
    replaces each row they touch by the row without their edges.  A vertex
    of degree 0 is never used.  Notes ``pad+N`` in ``trace`` when N > 0.
    """
    if len(stars) >= target:
        return
    trace.append(f"pad+{target - len(stars)}")
    n = len(rows)
    # each vertex's partners along the added stars' edges, still in its row
    gone: dict[int, list[int]] = {}
    center = 0
    while len(stars) < target:
        # free degrees never rise, so the smallest vertex with room never falls
        while center < n and len(rows[center]) - len(gone.get(center, ())) < k:
            center += 1
        if center == n:
            raise CompletionDefect(
                f"padding stuck at {len(stars)} of {target} stars (n={n}, k={k})"
            )
        # the pointer never returns, so the center's row is trimmed here;
        # edges that later centers take from it leave its row at the end
        row = _without(rows[center], gone.pop(center, ()))
        leaves, rows[center] = row[:k], row[k:]
        for leaf in leaves:
            gone.setdefault(leaf, []).append(center)
        stars.append(_star(center, leaves))
    for v, partners in gone.items():
        rows[v] = _without(rows[v], partners)


def _without(row: tuple[int, ...], partners: Iterable[int]) -> tuple[int, ...]:
    """The ascending row with the given members deleted."""
    out = [*row]
    for w in sorted(partners, reverse=True):
        del out[bisect_left(out, w)]
    return tuple(out)


def reduce_design(design: PartialDesign) -> tuple[PartialDesign, int, tuple[Star, ...]]:
    """Remove the smallest vertex that centers stars but is a leaf of none.

    Only defined for reducible designs (order 1 mod k, exactly u stars, such
    a vertex present).  Returns the relabeled smaller design, the removed
    vertex, and its stars under the original labels.  No remaining star
    touches the removed vertex, so dropping it is clean.
    """
    if not design.is_reducible():
        raise ValueError("design is not reducible")
    n, k = design.n, design.k
    x = _reduction_vertex(n, design.stars)
    assert x is not None
    removed = tuple(s for s in design.stars if s.center == x)
    # every label above x moves down one; the stars share the table's ints
    label = [*range(x + 1), *range(x, n - 1)]
    kept = [
        _star(label[center], tuple([label[v] for v in leaves]))
        for center, leaves in design.stars if center != x
    ]
    return PartialDesign(n - 1, k, kept), x, removed


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
    return _small_order_precentral(k, design.leftover(), design.stars, range(n))


def _small_order_precentral(k: int, leftover: Graph, stars: Iterable[Star],
                            vertices: Sequence[int]) -> Precentral:
    """:func:`small_order_precentral` of the design on ``vertices`` with the
    given stars and leftover; any other vertex of the leftover is isolated
    and gets 0."""
    n = len(vertices)
    central = [0] * leftover.n
    for center, _ in stars:
        central[center] += 1
    centers = [v for v in vertices if central[v] >= 1]
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
        (v for v in vertices if central[v] == 0),
        key=lambda v: (-len(leftover.rows[v]), v),
    )
    values = [0] * leftover.n
    for v in vertices:
        values[v] = 2 - central[v] if central[v] >= 1 else 1
    for v in rest[:boosted]:
        values[v] = 2
    assert all(v >= 0 for v in values)
    return Precentral.of_graph(leftover, k, values)


def _order_2k(star: Star, vertices: Sequence[int]) -> list[Star]:
    """The other stars of a full design of order 2k that contains ``star``.

    ``vertices`` are the design's 2k vertices, ascending.  The rotational
    design: with w the star's last leaf, put the center, the other leaves and
    then every other vertex on a ring of 2k - 1, and let each ring vertex
    center w and the k - 1 ring vertices after it; ring vertex 0's star is the
    given one.  Of the two ring distances between two ring vertices, which
    add up to 2k - 1, exactly one is below k, so each edge is covered once.
    """
    center, leaves = star
    w, k = leaves[-1], len(leaves)
    # the ring twice over, so the k - 1 vertices after i are one slice
    ring = [center, *leaves[:-1], *(v for v in vertices if v != center and v not in leaves)] * 2
    return [Star(ring[i], [w, *ring[i + 1:i + k]]) for i in range(1, 2 * k - 1)]


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


def complete(
    design: PartialDesign,
    *,
    oracle_budget: int = DEFAULT_BUDGET,
) -> CompletionResult:
    """Complete the design to a full k-star design, or certify why not.

    Designs with at most u(n, k) stars on admissible orders n >= 2k always
    come back "completed" (anything else raises CompletionDefect).  Over
    the threshold the answer is that of :func:`has_completion`: "completed",
    a certified "impossible", or "unknown" when the exhaustive search runs
    out of its ``oracle_budget`` nodes, the only bound on its work.
    """
    n, k = design.n, design.k
    trace: list[str] = ["validated"]
    if k < 2 or n < 2 * k or not is_admissible(n, k):
        design._require_valid()
        if n == 1:
            trace.append("trivial-order-1")
            return CompletionResult("completed", design, trace=tuple(trace))
        if not is_admissible(n, k):
            return CompletionResult(
                "impossible", reason="not-admissible", trace=tuple(trace)
            )
        return CompletionResult(
            "impossible", reason="order-too-small", trace=tuple(trace)
        )
    # leftover() validates: the design's one check, the graph its one build
    if len(design.stars) <= threshold_u(n, k):
        return _merged(n, k, _completed_stars(design, design.leftover(), trace), trace)
    # over the threshold: decide builds the leftover only when no edge is
    # blocked, so the design is checked here
    design._require_valid()
    trace.append("over-threshold-attempt")
    outcome, stars, reason, certificate = decide(design, oracle_budget, trace)
    if outcome == "yes":
        return _merged(n, k, [*design.stars, *stars], trace)
    return CompletionResult(
        "impossible" if outcome == "no" else "unknown",
        reason=reason, certificate=certificate, trace=tuple(trace),
    )


def _completed_stars(design: PartialDesign, leftover: Graph,
                     trace: list[str]) -> list[Star]:
    """The stars of a full design containing the given one, unchecked.

    The design must be valid, of admissible order n >= 2k, with at most
    u(n, k) stars, and ``leftover`` must be its leftover.  Each step taken
    is appended to ``trace``; a reduced design's own steps go into one
    ``recurse{...}`` entry.
    """
    n, k = design.n, design.k
    stars = [*design.stars]
    rows = [*leftover.rows]
    del leftover  # so the rows that padding replaces are freed
    _pad(k, rows, stars, threshold_u(n, k), trace)
    x = _reduction_vertex(n, stars) if n % k == 1 else None
    own: list[Star] = []
    steps = trace
    if x is not None:
        # x's free edges, in k-sized ascending blocks, become its own stars.
        # That isolates x, and the rest of the leftover is the leftover of
        # the order n - 1 design of the other stars.  That order is 0 mod k,
        # so the design is not reducible again.
        trace.append(f"reduce@{x}")
        own = [s for s in stars if s.center == x]
        stars = [s for s in stars if s.center != x]
        free = rows[x]
        assert len(free) % k == 0
        own.extend(_star(x, free[i:i + k]) for i in range(0, len(free), k))
        rows[x] = ()
        for v in free:
            rows[v] = _without(rows[v], (x,))
        steps = []
        _pad(k, rows, stars, threshold_u(n - 1, k), steps)
    built = _construction(k, stars, rows, x, steps)
    del rows  # free the O(n^2) leftover before the full star list is built
    if x is not None:
        trace.append("recurse{" + ";".join(steps) + "}")
    return [*stars, *built, *own]


def _construction(k: int, stars: list[Star], rows: list[tuple[int, ...]],
                  isolated: int | None, trace: list[str]) -> list[Star]:
    """Stars that decompose the leftover ``rows`` of a non-reducible design.

    The design's vertices are the rows' vertices but ``isolated``, when
    given: that vertex has neither stars nor leftover edges.  With n of them,
    the design has exactly u(n, k) ``stars``.
    """
    leftover = Graph._of_rows(len(rows), tuple(rows))
    if k == 2:
        pairing = decompose_2stars(leftover)
        if isinstance(pairing, Infeasible):
            raise CompletionDefect(
                "threshold design leftover has an odd component: "
                f"{sorted(pairing.vertices)}"
            )
        trace.append("construction=2star")
        return pairing

    vertices = [v for v in range(leftover.n) if v != isolated]
    n = len(vertices)
    if n == 2 * k:
        trace.append("construction=relabel-2k")
        return _order_2k(stars[0], vertices)

    if n == 2 * k + 1:
        # two stars at order 2k+1 always admit a reduction vertex: a doubled
        # center uses all its edges, and distinct centers cannot both be
        # leaves of each other's star without reusing their joining edge
        raise CompletionDefect(
            "order 2k+1 threshold design was not reducible; unreachable"
        )

    if n <= 3 * k + 1:
        trace.append("construction=small-order")
        p = _small_order_precentral(k, leftover, stars, vertices)
    else:
        trace.append("construction=suitable")
        p = suitable(leftover, k)
    built = realize(leftover, k, p)
    if isinstance(built, Infeasible):
        raise CompletionDefect(
            f"{trace[-1]}: realization infeasible, witness subset "
            f"{sorted(built.vertices)} has negative supply-demand balance"
        )
    return built
