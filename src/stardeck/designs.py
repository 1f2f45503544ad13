"""Data model for partial k-star designs.

A k-star is a copy of the complete bipartite graph K_{1,k}: one center joined
to k leaves.  A partial k-star design of order n is a set of pairwise
edge-disjoint k-stars on the vertex set {0, ..., n-1}; it is a (full) design
when the stars cover every edge of the complete graph K_n.
"""

from __future__ import annotations

import json
from itertools import chain, compress
from operator import itemgetter
from random import Random
from typing import Iterable, NamedTuple, Sequence


class _StarFields(NamedTuple):
    center: int
    leaves: tuple[int, ...]


class Star(_StarFields):
    """A k-star: ``center`` joined to each vertex in ``leaves``.

    An immutable pair of the center and the leaves, a tuple of distinct ints
    in ascending order.  ``Star(center, leaves)`` takes any iterable of
    leaves and drops repeats, so stars built from equal leaf sets are equal
    and hash alike; ``_make`` and ``_replace`` go through it too.
    """

    __slots__ = ()

    def __new__(cls, center: int, leaves: Iterable[int]) -> "Star":
        return tuple.__new__(cls, (center, tuple(sorted(set(leaves)))))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Star":
        return cls(*iterable)


def _star(center: int, leaves: tuple[int, ...]) -> Star:
    """A star on leaves the caller already holds as an ascending tuple of
    distinct ints; unlike ``Star(...)`` it neither sorts nor checks."""
    return tuple.__new__(Star, (center, leaves))


class _GraphFields(NamedTuple):
    n: int
    rows: tuple[int, ...]


class Graph(_GraphFields):
    """Immutable simple graph on vertices 0..n-1, stored as adjacency bitsets.

    Bit y of ``rows[v]`` is set exactly when {v, y} is an edge.
    ``Graph(n, edges)`` builds and checks the rows;
    ``Graph._make((n, rows))`` wraps rows the caller built symmetric and
    loop-free, unchecked.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return tuple.__new__(cls, (n, tuple(rows)))

    def __reduce__(self) -> tuple:
        # the constructor takes edges, so a copy rewraps the rows
        return self._make, (tuple(self),)

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, pairs)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def degrees(self) -> tuple[int, ...]:
        # through a list, so the tuple is allocated at its exact size
        return tuple([*map(int.bit_count, self.rows)])


# turns bin() digits into compress() selectors: "0" must be false
_SELECTORS = bytes.maketrans(b"0", b"\0")


def _members(mask: int, labels: Sequence[int]) -> list[int]:
    """The labels at the set bits of ``mask``, ascending by bit.

    Returns the caller's label objects themselves, so the many lists and
    stars built from one row share its ints.
    """
    # bin() reversed puts bit y at index y
    bits = bin(mask)[:1:-1].encode().translate(_SELECTORS)
    return [*compress(labels, bits)]


def is_admissible(n: int, k: int) -> bool:
    """True iff k divides the edge count of K_n, i.e. C(n,2) % k == 0."""
    return (n * (n - 1) // 2) % k == 0


def design_exists(n: int, k: int) -> bool:
    """True iff a full k-star design of order n exists.

    That holds exactly when n is admissible and the order is either trivial
    (n = 1) or large enough to host interleaved stars (n >= 2k).
    """
    return is_admissible(n, k) and (n == 1 or n >= 2 * k)


def threshold_u(n: int, k: int) -> int:
    """The completion threshold u(n, k).

    Every partial k-star design of order n >= 2k with at most u(n, k) stars
    extends to a full design, and u(n, k) + 1 stars can be uncompletable.
    The value is the raw formula, which dips to -1 for some admissible
    orders below 2k (where no design exists and already zero stars are
    uncompletable).
    """
    if n < 2 or k < 2:
        raise ValueError("threshold_u requires n >= 2 and k >= 2")
    if n % k == 1:
        return 2 * (n - 1) // k - 2
    return 2 * ((n - 2) // k) - 1


class _DesignFields(NamedTuple):
    n: int
    k: int
    stars: tuple[Star, ...]


class PartialDesign(_DesignFields):
    """A partial k-star design: order ``n``, star size ``k``, star list."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, stars: Iterable[Star] = ()) -> "PartialDesign":
        stars = tuple(stars)
        # a plain (center, leaves) pair becomes a Star, with its leaves
        # sorted, so validation and completion read the same stars
        if {*map(type, stars)} - {Star}:
            stars = tuple([s if isinstance(s, Star) else Star(*s) for s in stars])
        return tuple.__new__(cls, (n, k, stars))

    @classmethod
    def _make(cls, iterable: Iterable) -> "PartialDesign":
        return cls(*iterable)

    def validate(self) -> list[str]:
        """All rule violations, empty when the design is valid.

        A design is checked first in an n-by-n byte table when that takes at
        most 64 bytes per leaf its stars hold, about half of the per-edge dict
        of the loop below; real leaves bound it, not a claimed k.  The loop
        words the violations when the table finds one or is not used.
        """
        n, k, stars = self.n, self.k, self.stars
        leaves_held = sum(map(len, map(itemgetter(1), stars)))
        if n >= 1 and k >= 2 and n * n <= 64 * leaves_held:
            # edge {a, b}, a < b, marks a * n + b; a center that is a leaf hits
            # the marked diagonal and a repeated edge its own mark
            seen = bytearray(n * n)
            seen[::n + 1] = b"\x01" * n
            try:
                for center, leaves in stars:
                    if len(leaves) != k or not (0 <= center < n and 0 <= leaves[0] and leaves[-1] < n):
                        break
                    for leaf in leaves:
                        seen[center * n + leaf if center < leaf else leaf * n + center] = 1
                else:
                    if seen.count(1) == n + leaves_held:
                        return []
            except TypeError:
                pass  # a vertex that is not an int, which the loop words
        out: list[str] = []
        if n < 1:
            out.append(f"n must be >= 1, got {n}")
        if k < 2:
            out.append(f"k must be >= 2, got {k}")
        all_ints = {*map(type, chain(map(itemgetter(0), stars), *map(itemgetter(1), stars)))} <= {int}
        # a covered edge {a, b}, a < b, is keyed by the int a * n + b
        covered: dict[int, int] = {}
        for i, (center, leaves) in enumerate(self.stars):
            if not all_ints:  # a star with a vertex that is no int gets no other check
                odd = [f"star {i}: {'leaf' if j else 'center'} {v!r} is not an integer"
                       for j, v in enumerate((center, *leaves)) if not isinstance(v, int)]
                if odd:
                    out += odd
                    continue
            ok = 0 <= center < n
            if not ok:
                out.append(f"star {i}: center {center} out of range")
            if leaves and not (0 <= leaves[0] and leaves[-1] < n):
                for leaf in leaves:
                    if not (0 <= leaf < n):
                        out.append(f"star {i}: leaf {leaf} out of range")
                ok = False
            if center in leaves:
                out.append(f"star {i}: center {center} is also a leaf")
                ok = False
            if len(leaves) != k:
                out.append(f"star {i}: has {len(leaves)} leaves, expected {k}")
            if not ok:
                continue
            for leaf in leaves:
                key = center * n + leaf if center < leaf else leaf * n + center
                first = covered.setdefault(key, i)
                if first != i:
                    a, b = divmod(key, n)
                    out.append(
                        f"edge {{{a},{b}}} covered twice (stars {first} and {i})"
                    )
        return out

    def _require_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise ValueError("invalid design: " + "; ".join(violations))

    def leftover(self) -> Graph:
        """The graph of K_n edges not covered by any star."""
        self._require_valid()
        return self._leftover()

    def _leftover(self) -> Graph:
        """:meth:`leftover` of a design the caller has already validated."""
        n = self.n
        full = (1 << n) - 1
        rows = [full ^ (1 << v) for v in range(n)]
        for center, leaves in self.stars:
            mask = 0
            for leaf in leaves:
                mask |= 1 << leaf
                rows[leaf] ^= 1 << center
            rows[center] ^= mask
        return Graph._make((n, tuple(rows)))


def random_design(n: int, k: int, m: int, rng: Random) -> PartialDesign:
    """A uniform-ish random partial design with exactly m stars.

    Each star picks a uniformly random center among vertices with at least k
    uncovered incident edges, then a uniform k-subset of its uncovered
    neighbors.  Raises ValueError when no further star fits, and
    OverflowError at once on an order past the C index range.
    """
    if n < 1 or k < 2 or m < 0:
        raise ValueError("random_design requires n >= 1, k >= 2, m >= 0")
    vertices = list(range(n))  # sized before it is filled, so a huge n fails here
    adj = [*PartialDesign(n, k)._leftover().rows]
    stars: list[Star] = []
    for i in range(m):
        eligible = [v for v in vertices if adj[v].bit_count() >= k]
        if not eligible:
            raise ValueError(
                f"cannot place star {i + 1} of {m}:"
                f" no vertex has {k} uncovered incident edges"
            )
        center = rng.choice(eligible)
        leaves = rng.sample(_members(adj[center], vertices), k)
        for leaf in leaves:
            adj[center] ^= 1 << leaf
            adj[leaf] ^= 1 << center
        stars.append(Star(center, leaves))
    return PartialDesign(n, k, tuple(stars))


# --- JSON design documents -------------------------------------------------

def design_to_doc(design: PartialDesign) -> dict:
    """The design as a JSON-ready document with sorted leaf arrays."""
    return {
        "n": design.n,
        "k": design.k,
        "stars": [
            {"center": star.center, "leaves": list(star.leaves)}
            for star in design.stars
        ],
    }


def design_from_doc(doc: object) -> PartialDesign:
    """Parse a design document; unknown keys are ignored.

    Raises ValueError with a description of the first structural problem,
    such as a star whose leaves list repeats a vertex.
    """
    if not isinstance(doc, dict):
        raise ValueError("design document must be a JSON object")
    for key in ("n", "k", "stars"):
        if key not in doc:
            raise ValueError(f"design document missing key {key!r}")
    n, k, stars = doc["n"], doc["k"], doc["stars"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("'n' must be an integer")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("'k' must be an integer")
    if not isinstance(stars, list):
        raise ValueError("'stars' must be a list")
    parsed: list[Star] = []
    for i, item in enumerate(stars):
        if not isinstance(item, dict):
            raise ValueError(f"star {i} must be an object")
        if "center" not in item or "leaves" not in item:
            raise ValueError(f"star {i} must have 'center' and 'leaves'")
        center, leaves = item["center"], item["leaves"]
        if not isinstance(center, int) or isinstance(center, bool):
            raise ValueError(f"star {i}: 'center' must be an integer")
        if not isinstance(leaves, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in leaves
        ):
            raise ValueError(f"star {i}: 'leaves' must be a list of integers")
        # Star() would drop a repeat, so a document could pass k + 1 entries
        # off as a k-star
        distinct = set(leaves)
        if len(distinct) != len(leaves):
            raise ValueError(f"star {i}: 'leaves' repeats a vertex")
        parsed.append(_star(center, tuple(sorted(distinct))))
    return PartialDesign(n, k, tuple(parsed))


def canonical_dumps(doc: object) -> str:
    """Canonical JSON: sorted keys, no whitespace.  Byte-stable output."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dumps_design(design: PartialDesign) -> str:
    return canonical_dumps(design_to_doc(design))


def loads_design(text: str) -> PartialDesign:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    return design_from_doc(doc)
