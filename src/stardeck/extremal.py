"""Extremal uncompletable designs: one star past the completion threshold.

For every admissible order the construction leaves a "blocked" edge: an
uncovered edge both of whose endpoints have too few uncovered incident edges
to center a star.  No completion can ever cover such an edge, so the design
is uncompletable, witnessing that the threshold u(n, k) is sharp.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .designs import Graph, PartialDesign, Star, _star, is_admissible


class BlockedEdgeCertificate(NamedTuple):
    """An uncovered edge whose endpoints both have leftover degree in [1, k-1].

    Any star covering the edge would need k uncovered edges at one endpoint,
    so no completion exists.
    """

    edge: tuple[int, int]
    degrees: tuple[int, int]

    def to_doc(self) -> dict:
        return {
            "blocked_edge": list(self.edge),
            "degrees": list(self.degrees),
        }


def blocked_edge(leftover: Graph, k: int) -> BlockedEdgeCertificate | None:
    """The first blocked edge of a leftover graph, if any.

    Edges are scanned in sorted order, low end first; a hit certifies
    uncompletability.
    """
    degrees = leftover.degrees()
    for a, row in enumerate(leftover.rows):
        if degrees[a] <= k - 1:
            for b in row[bisect_right(row, a):]:
                if degrees[b] <= k - 1:
                    return BlockedEdgeCertificate((a, b), (degrees[a], degrees[b]))
    return None


def check_blocked_edge(design: PartialDesign) -> BlockedEdgeCertificate | None:
    """The first blocked edge of the design's leftover, if any."""
    return blocked_edge(design.leftover(), design.k)


def gen_uncompletable(n: int, k: int) -> PartialDesign:
    """A valid partial design with u(n, k) + 1 stars and no completion.

    Two constructions, both leaving edge {0,1} blocked:

    * n != 1 (mod k): vertices 0 and 1 each center floor((n-2)/k) stars
      whose leaves are consecutive blocks of {2, ..., n-1}.
    * n == 1 (mod k): vertex 2 centers one star with leaves {0, 1, 3..k},
      then 0 and 1 each center (n-k-1)/k stars with consecutive leaf
      blocks from {3, ..., n-1}.
    """
    if n < 2:
        raise ValueError("gen_uncompletable requires n >= 2")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not is_admissible(n, k):
        raise ValueError(f"n={n} is not admissible for k={k}")
    stars: list[Star] = []
    if n % k == 1:
        stars.append(_star(2, (0, 1, *range(3, k + 1))))
        per_center = (n - k - 1) // k
        pool = tuple(range(3, n))
    else:
        per_center = (n - 2) // k
        pool = tuple(range(2, n))
    for center in (0, 1):
        for i in range(per_center):
            stars.append(_star(center, pool[i * k:(i + 1) * k]))
    return PartialDesign(n, k, tuple(stars))
