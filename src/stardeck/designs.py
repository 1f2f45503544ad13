"""Data model for partial k-star designs.

A k-star is a copy of the complete bipartite graph K_{1,k}: one center joined
to k leaves.  A partial k-star design of order n is a set of pairwise
edge-disjoint k-stars on the vertex set {0, ..., n-1}; it is a (full) design
when the stars cover every edge of the complete graph K_n.
"""

from __future__ import annotations

import json
from operator import itemgetter
from random import Random
from typing import Iterable, Sequence


class Star(tuple):
    """A k-star: ``center`` joined to each vertex in ``leaves``.

    An immutable pair of the center and the leaves, a tuple of distinct ints
    in ascending order.  ``Star(center, leaves)`` takes any iterable of
    leaves and drops repeats, so stars built from equal leaf sets are equal
    and hash alike.
    """

    __slots__ = ()

    def __new__(cls, center: int, leaves: Iterable[int]) -> "Star":
        return tuple.__new__(cls, (center, tuple(sorted(set(leaves)))))

    center = property(itemgetter(0), doc="The center vertex.")
    leaves = property(itemgetter(1), doc="The leaves, ascending and distinct.")

    def __getnewargs__(self) -> tuple[int, tuple[int, ...]]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Star(center={self[0]!r}, leaves={self[1]!r})"


def _star(center: int, leaves: tuple[int, ...]) -> Star:
    """A star on leaves the caller already holds as an ascending tuple of
    distinct ints; unlike ``Star(...)`` it neither sorts nor checks."""
    return tuple.__new__(Star, (center, leaves))


class _Record:
    """An immutable record on ``__slots__``: its fields are the slots, in
    order, and it compares, hashes, prints and pickles by them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return _rebuild, (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _rebuild(cls: type, values: tuple) -> _Record:
    """The record of class cls with the given field values, unchecked."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


class Graph(_Record):
    """Immutable simple graph on vertices 0..n-1, stored as adjacency rows.

    ``rows[v]`` holds v's neighbors in ascending order.
    """

    __slots__ = ("n", "rows")
    __match_args__ = __slots__
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            norm.add((a, b) if a < b else (b, a))
        rows: list[list[int]] = [[] for _ in range(n)]
        # ascending edges fill every row in ascending order
        for a, b in sorted(norm):
            rows[a].append(b)
            rows[b].append(a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    @classmethod
    def _of_rows(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph on rows the caller built symmetric and ascending; no check."""
        return _rebuild(cls, (n, rows))

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, pairs)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rows)) // 2

    def degrees(self) -> tuple[int, ...]:
        # through a list, so the tuple is allocated at its exact size
        return tuple([*map(len, self.rows)])


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


class PartialDesign(_Record):
    """A partial k-star design: order ``n``, star size ``k``, star list."""

    __slots__ = ("n", "k", "stars")
    __match_args__ = __slots__
    n: int
    k: int
    stars: tuple[Star, ...]

    def __init__(self, n: int, k: int, stars: Iterable[Star] = ()) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "stars", tuple(stars))

    def validate(self) -> list[str]:
        """All rule violations, empty when the design is valid."""
        n, k = self.n, self.k
        out: list[str] = []
        if n < 1:
            out.append(f"n must be >= 1, got {n}")
        if k < 2:
            out.append(f"k must be >= 2, got {k}")
        # a covered edge {a, b}, a < b, is keyed by the int a * n + b
        covered: dict[int, int] = {}
        for i, (center, leaves) in enumerate(self.stars):
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
        vertices = list(range(self.n))  # rows share these int objects
        # each vertex's covered partners, plus the vertex itself
        covered = [{v} for v in vertices]
        for center, leaves in self.stars:
            covered[center].update(leaves)
            for leaf in leaves:
                covered[leaf].add(center)
        # a row is the vertex list with the covered ones deleted, last first,
        # frozen from a list so the tuple gets its exact size: tuple() of an
        # iterator without a length hint allocates 10 slots and resizes, which
        # strands small tuples on the interpreter's free lists
        rows = []
        for cover in covered:
            row = vertices[:]
            for x in sorted(cover, reverse=True):
                del row[x]
            rows.append(tuple(row))
        return Graph._of_rows(self.n, tuple(rows))

    def is_reducible(self) -> bool:
        """True iff the design admits the one-vertex reduction step.

        Requires order n = 1 (mod k), exactly u(n, k) stars, and a vertex
        that centers at least one star while being a leaf of none.
        """
        self._require_valid()
        if self.n % self.k != 1:
            return False
        if self.n < 2 or len(self.stars) != threshold_u(self.n, self.k):
            return False
        return _reduction_vertex(self.n, self.stars) is not None


def _reduction_vertex(n: int, stars: Sequence[Star]) -> int | None:
    """Smallest vertex of 0..n-1 centering one of the stars and a leaf of none."""
    leaves = set().union(*(leaves for _, leaves in stars))
    return min(
        (c for c, _ in stars if 0 <= c < n and c not in leaves), default=None
    )


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
    adj: list[set[int]] = [set(vertices) - {v} for v in vertices]
    stars: list[Star] = []
    for i in range(m):
        eligible = [v for v in vertices if len(adj[v]) >= k]
        if not eligible:
            raise ValueError(
                f"cannot place star {i + 1} of {m}:"
                f" no vertex has {k} uncovered incident edges"
            )
        center = rng.choice(eligible)
        leaves = rng.sample(sorted(adj[center]), k)
        for leaf in leaves:
            adj[center].discard(leaf)
            adj[leaf].discard(center)
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

    Raises ValueError with a description of the first structural problem.
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
        parsed.append(Star(center, leaves))
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
