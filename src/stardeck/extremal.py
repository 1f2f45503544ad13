"""Extremal uncompletable designs: one star past the completion threshold.

For every admissible order the construction leaves a "blocked" edge: an
uncovered edge both of whose endpoints have too few uncovered incident edges
to center a star.  No completion can ever cover such an edge, so the design
is uncompletable, witnessing that the threshold u(n, k) is sharp.
"""

from __future__ import annotations

from typing import NamedTuple

from .designs import PartialDesign, Star, _star, is_admissible


class BlockedEdgeCertificate(NamedTuple):
    """An uncovered edge whose endpoints both have leftover degree in [1, k-1].

    Any star covering the edge would need k uncovered edges at one endpoint,
    so no completion exists.  The degrees follow from the stars alone, so
    the certificate is checked without building the leftover graph.
    """

    edge: tuple[int, int]
    degrees: tuple[int, int]

    def to_doc(self) -> dict:
        return {
            "blocked_edge": list(self.edge),
            "degrees": list(self.degrees),
        }


def blocked_edge(design: PartialDesign) -> BlockedEdgeCertificate | None:
    """The first blocked edge of a valid design's leftover, if any.

    The edge is the first that a scan of the leftover's edges in sorted
    order, low end first, would find; a hit certifies uncompletability.
    The leftover is never built: the degrees come from the stars, and among
    the vertices of leftover degree 1..k-1 the first pair that no star
    covers is the edge.  An untouched vertex has degree n - 1, so it takes
    part only when n <= k.  Work and memory are O(n + k * stars).
    """
    n, k, stars = design.n, design.k, design.stars
    degree = [n - 1] * n
    for center, leaves in stars:
        degree[center] -= k
        for leaf in leaves:
            degree[leaf] -= 1
    low = [v for v, d in enumerate(degree) if 0 < d < k]
    is_low = set(low)
    # the covered edges {a, b}, a < b, between low vertices, keyed a * n + b
    covered = set()
    for center, leaves in stars:
        if center in is_low:
            for leaf in leaves:
                if leaf in is_low:
                    covered.add(center * n + leaf if center < leaf else leaf * n + center)
    # each pair passed over is covered, so the scan is O(len(low) + k * stars)
    for i, a in enumerate(low):
        for j in range(i + 1, len(low)):
            b = low[j]
            if a * n + b not in covered:
                return BlockedEdgeCertificate((a, b), (degree[a], degree[b]))
    return None


def check_blocked_edge(design: PartialDesign) -> BlockedEdgeCertificate | None:
    """The first blocked edge of the design's leftover, if any.

    Validates the design first, then calls :func:`blocked_edge`.
    """
    design._require_valid()
    return blocked_edge(design)


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
