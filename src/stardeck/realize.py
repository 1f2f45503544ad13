"""Turning a precentral function into an actual star decomposition.

Realisation is a feasibility problem: every edge must be handed to one of
its two endpoints, and vertex x must end up holding exactly k*p(x) edges.
An augmenting-path search settles it; when it fails, the set of vertices
unreachable in the residual structure witnesses the failure with negative
supply-demand balance.  For k = 2 the pairing of :func:`decompose_2stars`
decides on its own, with an odd component as its witness.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import NamedTuple

from .designs import Graph, Star, _members, _star
from .precentral import Precentral, VertexFunction, suitable, vertex_values


class Infeasible(NamedTuple):
    """Certificate value for a failed construction.

    ``kind`` is "cut" for a vertex subset with negative supply-demand
    balance, "odd-component" for a connected component with an odd number
    of edges (2-star pairing).
    """

    kind: str
    vertices: frozenset[int]


def decompose_2stars(graph: Graph) -> list[Star] | Infeasible:
    """Decompose a graph into 2-stars (paths of two edges), if possible.

    Possible exactly when every connected component has an even number of
    edges.  Construction: per component, root a spanning tree at the smallest
    vertex and sweep vertices in reverse breadth-first order, pairing each
    vertex's unused non-parent edges two at a time and borrowing the parent
    edge when one is left over.
    """
    n = graph.n
    labels = [*range(n)]
    # each vertex's edges not yet paired
    free = [*graph.rows]
    seen = [False] * n
    stars: list[Star] = []
    for root in range(n):
        if seen[root] or not graph.rows[root]:
            continue
        order = [root]
        parent: dict[int, int | None] = {root: None}
        seen[root] = True
        qi = 0
        while qi < len(order):
            w = order[qi]
            qi += 1
            for y in _members(graph.rows[w], labels):
                if not seen[y]:
                    seen[y] = True
                    parent[y] = w
                    order.append(y)
        comp_edge_count = sum(graph.rows[v].bit_count() for v in order) // 2
        if comp_edge_count % 2 != 0:
            return Infeasible("odd-component", frozenset(order))
        for v in reversed(order):
            par = parent[v]
            # the parent edge stays free until v is done: only v and its
            # parent can pair it, and the parent comes later
            up = 0 if par is None else 1 << par
            pending = _members(free[v] & ~up, labels)
            if len(pending) % 2 == 1:
                assert par is not None  # root parity is even by construction
                pending.append(par)
                up = 0
            free[v] &= up
            for y in pending:
                free[y] ^= 1 << v
            for i in range(0, len(pending), 2):
                stars.append(Star(v, (pending[i], pending[i + 1])))
    assert not any(free)
    return stars


def realize(graph: Graph, k: int, p: VertexFunction) -> list[Star] | Infeasible:
    """A k-star decomposition of the graph with center counts p, if one exists.

    Deterministic: edges are placed in sorted order, lower endpoints first,
    and each vertex's assigned edges are grouped into stars k at a time by
    the other endpoint's index.  On infeasibility returns the witness subset
    (all supply-demand slack lives outside the reachable region, so the
    unreachable vertices have demand exceeding their incident edges).
    """
    values = Precentral.of_graph(graph, k, vertex_values(p, graph.n)).values
    n = graph.n
    cap = [k * v for v in values]
    used = [0] * n
    # holder[x] lists the far ends of the edges handed to x, in hand-over order
    holder: list[list[int]] = [[] for _ in range(n)]

    def place(y: int, x: int, visited: set[int]) -> bool:
        # hand edge {x, y} to the full vertex x by relocating one of its edges
        hx = holder[x]
        for z in filterfalse(visited.__contains__, hx):
            visited.add(z)
            if used[z] < cap[z]:
                holder[z].append(x)
                used[z] += 1
            elif not place(x, z, visited):
                continue
            hx.remove(z)
            hx.append(y)
            return True
        return False

    labels = [*range(n)]
    unplaced: list[tuple[int, int]] = []
    for a, row in enumerate(graph.rows):
        later = _members(row & -(2 << a), labels)
        # used[a] never falls, so a takes exactly its row's leading edges
        taken = later[:cap[a] - used[a]]
        holder[a].extend(taken)
        used[a] += len(taken)
        for b in later[len(taken):]:
            visited = {a}
            if place(b, a, visited):
                continue
            if used[b] < cap[b]:
                holder[b].append(a)
                used[b] += 1
                continue
            visited.add(b)
            if not place(a, b, visited):
                unplaced.append((a, b))
    # place refers to itself; unbinding it breaks that cycle, so the closure
    # and the search state it holds are freed without the cyclic collector
    del place

    if unplaced:
        reached: set[int] = set()
        frontier: list[int] = []
        for edge in unplaced:
            for x in edge:
                if x not in reached:
                    reached.add(x)
                    frontier.append(x)
        while frontier:
            x = frontier.pop()
            for y in holder[x]:
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        witness = frozenset(range(n)) - reached
        assert witness and len(witness) < n
        return Infeasible("cut", witness)

    stars: list[Star] = []
    for v in labels:
        assert used[v] == cap[v]
        others = tuple(sorted(holder[v]))
        holder[v].clear()  # release the search state as the stars replace it
        for i in range(0, len(others), k):
            stars.append(_star(v, others[i:i + k]))
    return stars


def construct(graph: Graph, k: int) -> tuple[list[Star], int] | None:
    """A k-star decomposition built from suitable(graph, k), or None.

    Realizes the suitable function; on an infeasible cut T it moves one
    star from the donor in T with the largest k*p(x) - deg(x) among p(x) > 0
    to the vertex outside T with the smallest such value that still has
    room, k*(p(y) + 1) <= deg(y), ties to the smaller index, and retries.
    Returns the stars with the number of moves made.  Gives up when no donor
    or taker exists or a function repeats, so None proves nothing; a
    returned decomposition proves itself.  The edge count must be a
    multiple of k.
    """
    degrees = graph.degrees()
    values = list(suitable(graph, k).values)
    tried = {tuple(values)}
    while True:
        result = realize(graph, k, values)
        if not isinstance(result, Infeasible):
            return result, len(tried) - 1  # each move added one function
        cut = result.vertices
        donors = [x for x in cut if values[x] > 0]
        takers = [y for y in range(graph.n)
                  if y not in cut and k * (values[y] + 1) <= degrees[y]]
        if not donors or not takers:
            return None
        donor = max(donors, key=lambda x: (k * values[x] - degrees[x], -x))
        taker = min(takers, key=lambda y: (k * values[y] - degrees[y], y))
        values[donor] -= 1
        values[taker] += 1
        key = tuple(values)
        if key in tried:
            return None
        tried.add(key)


__all__ = [
    "Infeasible",
    "construct",
    "decompose_2stars",
    "realize",
]
