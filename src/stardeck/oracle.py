"""Brute-force ground truth: exhaustive search for k-star decompositions.

Small instances only.  The search branches on the lexicographically smallest
uncovered edge, trying each endpoint as a center with every k-subset of its
uncovered incident edges that contains the branching edge.  A node budget
bounds the work; exceeding it yields an explicit "budget_exceeded" status
instead of an answer.  ``has_completion`` tries the polynomial construction
first and searches only when it fails.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .designs import Graph, PartialDesign, Star
from .precentral import VertexFunction, vertex_values
from .realize import construct

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "STARDECK_ORACLE_BUDGET"


def default_budget() -> int:
    """The node budget, overridable via the STARDECK_ORACLE_BUDGET env var."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    return check_budget(BUDGET_ENV_VAR, value)


def check_budget(source: str, value: int) -> int:
    """Return a node budget, or raise ValueError naming its source if below 1."""
    if value < 1:
        raise ValueError(f"{source} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class OracleResult:
    """Search outcome: status is "found", "none", or "budget_exceeded"."""

    status: str
    stars: tuple[Star, ...] | None
    nodes: int


class _BudgetExceeded(Exception):
    pass


def decompose_exhaustive(
    graph: Graph,
    k: int,
    pinned: VertexFunction | None = None,
    budget: int | None = None,
) -> OracleResult:
    """Exhaustive k-star decomposition search, optionally with pinned centers.

    With ``pinned``, only decompositions whose center counts equal the pinned
    function are admitted, and branches where a vertex's uncovered degree
    cannot support its remaining pinned stars are cut.  Deterministic for a
    given input; found decompositions are reproducible.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if budget is None:
        budget = default_budget()
    n = graph.n
    m = graph.edge_count
    if m % k != 0:
        return OracleResult("none", None, 0)
    pins: tuple[int, ...] | None = None
    if pinned is not None:
        pins = vertex_values(pinned, n)
        if any(v < 0 for v in pins) or sum(pins) * k != m:
            return OracleResult("none", None, 0)
    adj: list[set[int]] = [set(graph.neighbors(v)) for v in range(n)]
    counts = [0] * n
    stars: list[Star] = []
    nodes = 0

    def blocked(x: int) -> bool:
        # an uncovered edge both of whose endpoints now have uncovered
        # degree below k can never be covered: degrees only shrink
        d = len(adj[x])
        if 0 < d < k:
            for y in adj[x]:
                if len(adj[y]) < k:
                    return True
        return False

    def search() -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        lo = next((x for x in range(n) if adj[x]), None)
        if lo is None:
            return True
        hi = min(adj[lo])
        for center, other in ((lo, hi), (hi, lo)):
            if pins is not None and counts[center] >= pins[center]:
                continue
            rest = sorted(adj[center] - {other})
            if len(rest) < k - 1:
                continue
            for extra in combinations(rest, k - 1):
                leaves = (other,) + extra
                for y in leaves:
                    adj[center].discard(y)
                    adj[y].discard(center)
                counts[center] += 1
                touched = (center,) + leaves
                ok = True
                if pins is not None:
                    for x in touched:
                        if k * (pins[x] - counts[x]) > len(adj[x]):
                            ok = False
                            break
                if ok:
                    ok = not any(blocked(x) for x in touched)
                if ok:
                    stars.append(Star(center, leaves))
                    if search():
                        return True
                    stars.pop()
                counts[center] -= 1
                for y in leaves:
                    adj[center].add(y)
                    adj[y].add(center)
        return False

    try:
        found = search()
    except _BudgetExceeded:
        return OracleResult("budget_exceeded", None, nodes)
    finally:
        # search refers to itself; unbinding it breaks that cycle, so the
        # closure and the search state it holds are freed without the
        # cyclic collector
        del search
    if found:
        return OracleResult("found", tuple(stars), nodes)
    return OracleResult("none", None, nodes)


def has_completion(design: PartialDesign, budget: int | None = None) -> str:
    """"yes", "no", or "unknown": can the design be completed at all?

    "yes" comes from a decomposition of the leftover graph, built by
    :func:`construct` when it succeeds and found by exhaustive search
    otherwise.  "no" comes only from the edge count or the search, and
    "unknown" only when the search runs out of its node budget.
    """
    leftover = design.leftover()
    if leftover.edge_count % design.k != 0:
        return "no"
    if construct(leftover, design.k) is not None:
        return "yes"
    result = decompose_exhaustive(leftover, design.k, budget=budget)
    return {"found": "yes", "none": "no", "budget_exceeded": "unknown"}[result.status]
