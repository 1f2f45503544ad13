"""Brute-force ground truth: exhaustive search for k-star decompositions.

Small instances only.  The search branches on the lexicographically smallest
uncovered edge, trying each endpoint as a center with every k-subset of its
uncovered incident edges that contains the branching edge.  A node budget
bounds the search; exceeding it yields an explicit "budget_exceeded" status
instead of an answer.  ``has_completion`` answers whether a design can be
completed at all, by the one decision that ``complete`` makes too:
:func:`stardeck.completion.decide`, which runs this search last.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .designs import Graph, PartialDesign, Star, _members, _star

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
    ``budget`` bounds the nodes: the root and each star placement that
    passes the blocked-edge check.  The k-subsets a node tries and rejects
    are not counted, so on a dense graph with large k one node can try
    thousands of them, and the budget does not bound the time.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = graph.n
    if graph.edge_count % k != 0:
        return OracleResult("none", None, 0)
    adj: list[set[int]] = [set(_members(row, range(n))) for row in graph.rows]
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
                # no any() over a generator: it made the search 1.28x slower
                for x in (center,) + leaves:
                    if blocked(x):
                        break
                else:
                    stars.append(_star(center, tuple(sorted(leaves))))
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


def has_completion(design: PartialDesign, budget: int = DEFAULT_BUDGET) -> str:
    """"yes", "no", or "unknown": can the design be completed at all?

    The outcome of :func:`stardeck.completion.decide`, the decision that
    ``complete`` makes too, with its ValueError on an invalid or too large
    design.  "unknown" comes only when the search runs out of its node budget.
    """
    # completion imports the search from here, so decide is imported late
    from .completion import decide
    return decide(design, budget, [])[0]
