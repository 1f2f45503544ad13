"""Brute-force ground truth: exhaustive search for k-star decompositions.

Small instances only.  The search branches on the lexicographically smallest
uncovered edge, trying each endpoint as a center with every k-subset of its
uncovered incident edges that contains the branching edge.  A node budget
bounds the work; exceeding it yields an explicit "budget_exceeded" status
instead of an answer.  ``decide`` is the one over-threshold decision that
``has_completion`` and ``complete`` share: certificates and constructions
first, the search last.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .designs import Graph, PartialDesign, Star, is_admissible
from .extremal import blocked_edge
from .realize import Infeasible, construct, decompose_2stars

DEFAULT_BUDGET = 10_000_000


class OracleResult(NamedTuple):
    """Search outcome: status is "found", "none", or "budget_exceeded"."""

    status: str
    stars: tuple[Star, ...] | None
    nodes: int


def decompose_exhaustive(
    graph: Graph, k: int, *, budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Exhaustive k-star decomposition search.

    Deterministic for a given input; found decompositions are reproducible.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = graph.n
    if graph.edge_count % k != 0:
        return OracleResult("none", None, 0)
    adj: list[set[int]] = [set(row) for row in graph.rows]
    stars: list[Star] = []

    def blocked(x: int) -> bool:
        # an uncovered edge both of whose endpoints now have uncovered
        # degree below k can never be covered: degrees only shrink
        d = len(adj[x])
        if 0 < d < k:
            for y in adj[x]:
                if len(adj[y]) < k:
                    return True
        return False

    def placements(lo: int) -> Iterator[bool]:
        # the children of a node whose smallest uncovered edge is {lo, hi}:
        # each yield leaves one more star placed, and the next step takes it
        # back before it tries the next one
        hi = min(adj[lo])
        for center, other in ((lo, hi), (hi, lo)):
            rest = sorted(adj[center] - {other})
            if len(rest) < k - 1:
                continue
            for extra in combinations(rest, k - 1):
                leaves = (other,) + extra
                for y in leaves:
                    adj[center].discard(y)
                    adj[y].discard(center)
                if not any(blocked(x) for x in (center,) + leaves):
                    stars.append(Star(center, leaves))
                    yield True
                    stars.pop()
                for y in leaves:
                    adj[center].add(y)
                    adj[y].add(center)

    # the open nodes on the path from the root, deepest last
    stack: list[Iterator[bool]] = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return OracleResult("budget_exceeded", None, nodes)
        lo = next((x for x in range(n) if adj[x]), None)
        if lo is None:
            return OracleResult("found", tuple(stars), nodes)
        stack.append(placements(lo))
        # backtrack past the nodes that have no further child
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return OracleResult("none", None, nodes)


def decide(
    design: PartialDesign, budget: int, trace: list[str],
) -> tuple[str, Sequence[Star] | None, str | None, dict | None]:
    """Can the design's leftover graph be decomposed into k-stars?

    Returns ``(outcome, stars, reason, certificate)``: "yes" with the stars,
    "no" with a reason and certificate, or "unknown" with a reason.  Tries,
    in order, a blocked edge, read off the stars, and then, on the leftover
    graph built only from here on, the 2-star pairing (k = 2, which
    decides), :func:`construct`, and the exhaustive search under ``budget``.
    Each step taken is appended to ``trace``.  The design must be valid and
    k must divide C(n, 2).
    """
    k = design.k
    cert = blocked_edge(design)
    if cert is not None:
        trace.append("certificate=blocked-edge")
        return "no", None, "blocked-edge", cert.to_doc()
    leftover = design._leftover()
    if k == 2:
        pairing = decompose_2stars(leftover)
        if isinstance(pairing, Infeasible):
            # even edge count per component characterizes 2-star
            # decomposability, so this is a certificate, not a give-up
            trace.append("certificate=odd-component")
            return "no", None, "odd-component", {
                "odd_component": sorted(pairing.vertices)}
        trace.append("construction=2star")
        return "yes", pairing, None, None
    built = construct(leftover, k)
    if built is not None:
        stars, repairs = built
        if repairs:
            trace.append(f"repair+{repairs}")
        trace.append("construction=suitable")
        return "yes", stars, None, None
    trace.append("realize-infeasible")
    oracle = decompose_exhaustive(leftover, k, budget=budget)
    if oracle.status == "found":
        trace.append("construction=oracle")
        return "yes", oracle.stars, None, None
    if oracle.status == "none":
        trace.append("certificate=oracle")
        return "no", None, "oracle", {"oracle_nodes": oracle.nodes}
    trace.append("oracle=budget-exceeded")
    return "unknown", None, "oracle-budget-exceeded", None


def has_completion(design: PartialDesign, budget: int = DEFAULT_BUDGET) -> str:
    """"yes", "no", or "unknown": can the design be completed at all?

    Validates the design, then answers "no" when k does not divide C(n, 2),
    the edge count of K_n; otherwise the answer of :func:`decide`.
    "unknown" comes only when the search runs out of its node budget.
    """
    design._require_valid()
    if not is_admissible(design.n, design.k):
        return "no"
    return decide(design, budget, [])[0]
