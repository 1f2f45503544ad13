"""Precentral functions: candidate center counts for a star decomposition.

A k-precentral function for a graph G assigns each vertex a nonnegative
integer so the total equals |E(G)|/k.  It is realisable when some k-star
decomposition of G centers exactly that many stars at each vertex.  The
residue p*(x) = p(x) - deg(x)/(2k) measures how far p leans away from the
"fair share" deg(x)/(2k); all residue arithmetic here is exact, over the
fixed denominator 2k.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .designs import Graph

if TYPE_CHECKING:
    from fractions import Fraction


class Precentral(NamedTuple):
    """A checked k-precentral function with its graph's degree context."""

    k: int
    values: tuple[int, ...]
    degrees: tuple[int, ...]

    @classmethod
    def of_graph(cls, graph: Graph, k: int, values: Sequence[int]) -> "Precentral":
        if k < 2:
            raise ValueError("k must be >= 2")
        vals = vertex_values(values, graph.n)
        if any(v < 0 for v in vals):
            raise ValueError("precentral values must be nonnegative")
        if sum(vals) * k != graph.edge_count:
            raise ValueError(
                f"sum(p) = {sum(vals)} but |E|/k = {graph.edge_count}/{k}"
            )
        return cls(k, vals, graph.degrees())

    @property
    def n(self) -> int:
        return len(self.values)

    def pstar(self, x: int) -> Fraction:
        """Exact residue p(x) - deg(x)/(2k)."""
        from fractions import Fraction  # here, not at the top: only residues use it

        return Fraction(2 * self.k * self.values[x] - self.degrees[x], 2 * self.k)

    def pstar_all(self) -> tuple[Fraction, ...]:
        return tuple(self.pstar(x) for x in range(self.n))


VertexFunction = Union[Precentral, Sequence[int]]


def vertex_values(p: VertexFunction, n: int) -> tuple[int, ...]:
    """A Precentral or sequence as a length-n tuple of ints; 1.5 is refused."""
    given = p.values if isinstance(p, Precentral) else tuple(p)
    vals = tuple([*map(int, given)])
    if vals != given:
        raise ValueError("vertex values must be integers, got "
                         f"{next(v for v, i in zip(given, vals) if v != i)!r}")
    if len(vals) != n:
        raise ValueError(f"expected {n} values, got {len(vals)}")
    return vals


def minimal(graph: Graph, k: int) -> Precentral:
    """The minimal proportional k-precentral function of the graph.

    Proportional means every value is deg(x)/(2k) rounded up or down; among
    those, this one minimizes the total absolute residue.  The vertices
    rounded up are the q = |E|/k - sum(floors) with the largest fractional
    part deg(x) mod 2k, ties favoring the smaller index.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    m = graph.edge_count
    if m % k != 0:
        raise ValueError(f"edge count {m} is not divisible by k={k}")
    degrees = graph.degrees()
    two_k = 2 * k
    floors = [d // two_k for d in degrees]
    rems = [d % two_k for d in degrees]
    q = m // k - sum(floors)
    candidates = sorted(
        (x for x in range(graph.n) if rems[x] > 0),
        key=lambda x: (-rems[x], x),
    )
    assert 0 <= q <= len(candidates)
    values = list(floors)
    for x in candidates[:q]:
        values[x] += 1
    return Precentral.of_graph(graph, k, values)


class BadVertex(NamedTuple):
    vertex: int


class BadEdge(NamedTuple):
    y1: int
    y2: int


def find_bad(p: VertexFunction, graph: Graph, k: int) -> BadVertex | BadEdge | None:
    """First flaw of a proportional function, if any.

    A bad vertex has degree below k yet value 1 (its star would not fit);
    a bad edge joins two value-0 vertices (nobody owns it yet both ends
    refused).  Vertices are checked first, each kind in lexicographic order.
    """
    values = vertex_values(p, graph.n)
    degrees = graph.degrees()
    for y in range(graph.n):
        if degrees[y] < k and values[y] == 1:
            return BadVertex(y)
    # the first bad edge has the smallest value-0 low end, then the lowest
    # value-0 bit above it in that end's row
    zeros = [y for y in range(graph.n) if values[y] == 0]
    zero_mask = sum(1 << y for y in zeros)
    for a in zeros:
        later = graph.rows[a] & zero_mask & -(2 << a)
        if later:
            return BadEdge(a, (later & -later).bit_length() - 1)
    return None


def suitable(graph: Graph, k: int) -> Precentral:
    """The minimal function after at most one flaw repair.

    A bad vertex y gives up its star (value to 0) and the vertex with the
    smallest residue gains one.  For a bad edge, the endpoint with the larger
    degree (larger index on ties) takes value 1 and the vertex with the
    largest residue gives one up.  At most one repair is applied; on graphs
    outside the repair rules' home turf the result may still have flaws,
    observable via find_bad.
    """
    base = minimal(graph, k)
    flaw = find_bad(base, graph, k)
    if flaw is None:
        return base
    degrees = base.degrees
    two_k = 2 * k
    # integer residue numerators over the fixed denominator 2k
    nums = [two_k * base.values[x] - degrees[x] for x in range(graph.n)]
    values = list(base.values)
    if isinstance(flaw, BadVertex):
        y = flaw.vertex
        donor = min(range(graph.n), key=lambda x: (nums[x], x))
        values[y] -= 1
        values[donor] += 1
    else:
        a, b = flaw
        y2 = b if degrees[a] <= degrees[b] else a
        donor = max(range(graph.n), key=lambda x: (nums[x], -x))
        assert values[donor] >= 1
        values[y2] += 1
        values[donor] -= 1
    return Precentral.of_graph(graph, k, values)

