"""Completion pipeline for partial k-star designs.

Any partial design of admissible order n >= 2k with at most u(n, k) stars is
completable, and this module actually builds the completion.  For k = 2 the
leftover is paired into 2-stars directly.  For k >= 3 the paper's
construction pads up to the threshold, removes a vertex that centers stars
but is a leaf of none if there is one (:func:`reduce_design`), then
dispatches on the order regime (the rotational design at n = 2k, the
closed-form :func:`small_order_precentral` for small orders, the repaired
minimal precentral function beyond).  :func:`decide`, which ``complete`` and
``has_completion`` share, also decides every other valid design: by the order
rules, then over the threshold by certificates and constructions first, the
exhaustive search last, which may run out of budget.  Every completion is
accepted only after a merge check.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .designs import (
    Graph,
    PartialDesign,
    Star,
    _members,
    _star,
    design_to_doc,
    is_admissible,
    threshold_u,
)
from .extremal import blocked_edge
from .oracle import DEFAULT_BUDGET, decompose_exhaustive
from .precentral import Precentral, suitable
from .realize import Infeasible, construct, decompose_2stars, realize


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


def _pad(k: int, rows: list[int], stars: list[Star], target: int,
         trace: list[str]) -> None:
    """The greedy padding of :func:`pad_to_threshold`, on leftover rows.

    Appends stars to ``stars`` until there are ``target`` of them, and
    clears their edges from ``rows``.  A vertex of degree 0 is never used.
    Notes ``pad+N`` in ``trace`` when N > 0.
    """
    if len(stars) >= target:
        return
    trace.append(f"pad+{target - len(stars)}")
    n = len(rows)
    labels = [*range(n)]
    center = 0
    while len(stars) < target:
        # free degrees never rise, so the smallest vertex with room never falls
        while center < n and rows[center].bit_count() < k:
            center += 1
        if center == n:
            raise CompletionDefect(
                f"padding stuck at {len(stars)} of {target} stars (n={n}, k={k})"
            )
        leaves = _members(rows[center], labels)[:k]
        # the k lowest bits are the bits up to the last leaf
        rows[center] &= -(2 << leaves[-1])
        for leaf in leaves:
            rows[leaf] ^= 1 << center
        stars.append(_star(center, tuple(leaves)))


def _reduction_vertex(stars: Sequence[Star]) -> int | None:
    """Smallest vertex that centers one of the stars and is a leaf of none."""
    leaves = set().union(*(leaves for _, leaves in stars))
    return min((c for c, _ in stars if c not in leaves), default=None)


def reduce_design(k: int, rows: list[int], stars: Sequence[Star],
                  x: int) -> tuple[list[Star], list[Star]]:
    """The reduction step at x, which centers some of ``stars`` but is a
    leaf of none: returns the other stars and x's own, old and new.

    x's free edges in the leftover ``rows``, in k-sized ascending blocks,
    become its new stars and are cleared from ``rows``.  No underscore: the
    benchmark's tracer wraps the step by this name.
    """
    own = [s for s in stars if s.center == x]
    free = _members(rows[x], range(len(rows)))
    assert len(free) % k == 0
    own.extend(_star(x, tuple(free[i:i + k])) for i in range(0, len(free), k))
    rows[x] = 0
    for v in free:
        rows[v] ^= 1 << x
    return [s for s in stars if s.center != x], own


def small_order_precentral(k: int, leftover: Graph, stars: Iterable[Star],
                           vertices: Sequence[int]) -> Precentral:
    """Closed-form realisable precentral function for small orders.

    The design on ``vertices``, n of them, with k >= 3 and 2k+1 < n <= 3k+1,
    has these stars, exactly u(n, k) and no reduction vertex, and this
    leftover.  Centers get 2 minus their star count, a computed number of
    the non-centers of highest leftover degree 2, the rest 1, any vertex
    outside ``vertices`` 0.  No underscore: the tracer wraps it by this name.
    """
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
        key=lambda v: (-leftover.rows[v].bit_count(), v),
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
    return [_star(ring[i], tuple(sorted([w, *ring[i + 1:i + k]]))) for i in range(1, 2 * k - 1)]


def _merged(n: int, k: int, stars: Iterable[Star],
            trace: list[str]) -> CompletionResult:
    """Accept ``stars`` as a full design of order n; every construction ends here.

    A valid design covers k distinct edges per star, so it covers all of K_n
    exactly when k times its star count is C(n, 2).  The design is checked
    by ``validate()``, which a full design, being dense, passes in its byte
    table.
    """
    full = PartialDesign(n, k, tuple(stars))
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

    The answer of :func:`decide`, whose stars are accepted only after the
    merge check.  Designs with at most u(n, k) stars on admissible orders
    n >= 2k always come back "completed" (anything else raises
    CompletionDefect).  Over the threshold the answer is "completed", a
    certified "impossible", or "unknown" when the exhaustive search runs out
    of its ``oracle_budget`` nodes.  k = 2 is always decided, by pairing.
    """
    trace: list[str] = ["validated"]
    outcome, stars, reason, certificate = decide(design, oracle_budget, trace)
    if outcome == "yes":
        return _merged(design.n, design.k, stars, trace)
    return CompletionResult(
        "impossible" if outcome == "no" else "unknown",
        reason=reason, certificate=certificate, trace=tuple(trace),
    )


def decide(
    design: PartialDesign, budget: int, trace: list[str],
) -> tuple[str, Sequence[Star] | None, str | None, dict | None]:
    """Can the design be completed at all?

    Returns ``(outcome, stars, reason, certificate)``: "yes" with every star
    of a full design containing the given one, unchecked; "no" with a reason
    and maybe a certificate; or "unknown" with a reason.  Within the
    guarantee (k >= 2, admissible n >= 2k, at most u(n, k) stars) the 2-star
    pairing answers for k = 2 and the paper's construction for k >= 3.
    Otherwise the design is validated and the order rules come first: "no"
    if k does not divide C(n, 2), "yes" at n = 1, "no" if n < 2k.  Over the
    threshold come, in order, a blocked edge read off the stars, then on the
    leftover the 2-star pairing (k = 2, which decides), :func:`construct`,
    and the search under ``budget``.  Each step taken is appended to
    ``trace``; an invalid design raises ValueError.
    """
    n, k = design.n, design.k
    guaranteed = (k >= 2 and n >= 2 * k and is_admissible(n, k)
                  and len(design.stars) <= threshold_u(n, k))
    if guaranteed:
        # leftover() validates: the design's one check, the graph its one build
        leftover = design.leftover()
        if k > 2:
            return "yes", _completed_stars(design, leftover, trace), None, None
    else:
        # a blocked edge is read off the stars, so the design is checked here
        design._require_valid()
        if not is_admissible(n, k):
            return "no", None, "not-admissible", None
        if n == 1:
            trace.append("trivial-order-1")
            return "yes", design.stars, None, None
        if n < 2 * k:
            return "no", None, "order-too-small", None
        trace.append("over-threshold-attempt")
        cert = blocked_edge(design)
        if cert is not None:
            trace.append("certificate=blocked-edge")
            return "no", None, "blocked-edge", cert.to_doc()
        leftover = design._leftover()
    if k == 2:
        pairing = decompose_2stars(leftover)
        if isinstance(pairing, Infeasible):
            if guaranteed:
                raise CompletionDefect(
                    "threshold design leftover has an odd component: "
                    f"{sorted(pairing.vertices)}"
                )
            # even edge count per component characterizes 2-star
            # decomposability, so this is a certificate, not a give-up
            trace.append("certificate=odd-component")
            return "no", None, "odd-component", {
                "odd_component": sorted(pairing.vertices)}
        trace.append("construction=2star")
        return "yes", [*design.stars, *pairing], None, None
    built = construct(leftover, k)
    if built is not None:
        stars, repairs = built
        if repairs:
            trace.append(f"repair+{repairs}")
        trace.append("construction=suitable")
        return "yes", [*design.stars, *stars], None, None
    trace.append("realize-infeasible")
    oracle = decompose_exhaustive(leftover, k, budget=budget)
    if oracle.status == "found":
        trace.append("construction=oracle")
        return "yes", [*design.stars, *oracle.stars], None, None
    if oracle.status == "none":
        trace.append("certificate=oracle")
        return "no", None, "oracle", {"oracle_nodes": oracle.nodes}
    trace.append("oracle=budget-exceeded")
    return "unknown", None, "oracle-budget-exceeded", None


def _completed_stars(design: PartialDesign, leftover: Graph,
                     trace: list[str]) -> list[Star]:
    """The stars of a full design containing the given one, unchecked.

    The paper's construction: pad to u(n, k) stars, reduce when possible,
    then build by the order regime.  The design must be valid, with k >= 3,
    of admissible order n >= 2k and at most u(n, k) stars, and ``leftover``
    must be its leftover.  Each step taken is appended to ``trace``; a
    reduced design's own steps go into one ``recurse{...}`` entry.
    """
    n, k = design.n, design.k
    stars = [*design.stars]
    rows = [*leftover.rows]
    _pad(k, rows, stars, threshold_u(n, k), trace)
    x = _reduction_vertex(stars) if n % k == 1 else None
    own: list[Star] = []
    steps = trace
    if x is not None:
        # the reduced order is 0 mod k, so that design is not reducible again
        trace.append(f"reduce@{x}")
        stars, own = reduce_design(k, rows, stars, x)
        steps = []
        _pad(k, rows, stars, threshold_u(n - 1, k), steps)
    # the design on these vertices has exactly u stars and is not reducible
    vertices = [v for v in range(n) if v != x]
    order = len(vertices)
    if order == 2 * k:
        steps.append("construction=relabel-2k")
        built = _order_2k(stars[0], vertices)
    elif order == 2 * k + 1:
        # two stars at order 2k+1 always admit a reduction vertex: a doubled
        # center uses all its edges, and distinct centers cannot both be
        # leaves of each other's star without reusing their joining edge
        raise CompletionDefect(
            "order 2k+1 threshold design was not reducible; unreachable"
        )
    else:
        leftover = Graph._make((n, tuple(rows)))
        if order <= 3 * k + 1:
            steps.append("construction=small-order")
            p = small_order_precentral(k, leftover, stars, vertices)
        else:
            steps.append("construction=suitable")
            p = suitable(leftover, k)
        built = realize(leftover, k, p)
        if isinstance(built, Infeasible):
            raise CompletionDefect(
                f"{steps[-1]}: realization infeasible, witness subset "
                f"{sorted(built.vertices)} has negative supply-demand balance"
            )
    if x is not None:
        trace.append("recurse{" + ";".join(steps) + "}")
    return [*stars, *built, *own]
