"""Seeded input generation for the benchmark workloads.

Every input is built from the workload name and the ``--seed`` argument
alone, with the benchmark's own generators, so the inputs do not change when
the program changes.  A slot is a plain dict: its ``kind`` names the
operation, the other keys are JSON-ready data.  ``digest`` hashes the slots.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

ORACLE_BUDGET = 1_000
"""Node budget for every oracle search (``oracle_budget=`` and ``--budget``)."""


def admissible(n: int, k: int) -> bool:
    return (n * (n - 1) // 2) % k == 0


def threshold(n: int, k: int) -> int:
    """u(n, k): 2(n-1)/k - 2 when n = 1 (mod k), else 2*floor((n-2)/k) - 1."""
    if n % k == 1:
        return 2 * (n - 1) // k - 2
    return 2 * ((n - 2) // k) - 1


def random_stars(n: int, k: int, m: int, rng: Random) -> list[list]:
    """m pairwise edge-disjoint k-stars as [center, sorted leaves].

    Each center is uniform over the vertices that still have k uncovered
    incident edges, the leaves a uniform k-subset of its uncovered
    neighbours.  Returns None when no further star fits.
    """
    free_degree = [n - 1] * n
    covered: set[tuple[int, int]] = set()
    stars = []
    for _ in range(m):
        eligible = [v for v in range(n) if free_degree[v] >= k]
        if not eligible:
            return None
        center = rng.choice(eligible)
        free = [
            x for x in range(n)
            if x != center and (min(x, center), max(x, center)) not in covered
        ]
        leaves = sorted(rng.sample(free, k))
        for leaf in leaves:
            covered.add((min(leaf, center), max(leaf, center)))
            free_degree[leaf] -= 1
        free_degree[center] -= k
        stars.append([center, leaves])
    return stars


def has_blocked_edge(n: int, k: int, stars: list[list]) -> bool:
    """True iff some uncovered edge has both endpoints of leftover degree < k."""
    covered = {(min(c, x), max(c, x)) for c, leaves in stars for x in leaves}
    degree = [n - 1] * n
    for a, b in covered:
        degree[a] -= 1
        degree[b] -= 1
    return any(
        degree[a] < k and degree[b] < k and (a, b) not in covered
        for a in range(n) for b in range(a + 1, n)
    )


def blocked_stars(n: int, k: int, rng: Random) -> list[list]:
    """u(n, k) + 1 stars leaving one edge blocked, under a random relabelling.

    Vertices 0 and 1 center stars on consecutive leaf blocks until each has
    fewer than k uncovered edges left; at n = 1 (mod k) vertex 2 first takes
    a star through both of them.
    """
    stars = []
    if n % k == 1:
        stars.append([2, [0, 1] + list(range(3, k + 1))])
        per_center, pool = (n - k - 1) // k, list(range(3, n))
    else:
        per_center, pool = (n - 2) // k, list(range(2, n))
    for center in (0, 1):
        for i in range(per_center):
            stars.append([center, pool[i * k:(i + 1) * k]])
    label = list(range(n))
    rng.shuffle(label)
    return [[label[c], sorted(label[x] for x in leaves)] for c, leaves in stars]


def _design(rng: Random, n: int, k: int, m: int) -> dict:
    stars = random_stars(n, k, m, rng)
    assert stars is not None, (n, k, m)
    return {"n": n, "k": k, "stars": stars}


def _over_design(rng: Random, n: int, k: int, extra: int) -> dict:
    """A design with u + 1 .. u + extra stars, redrawn until one fits."""
    while True:
        m = threshold(n, k) + rng.randint(1, extra)
        stars = random_stars(n, k, m, rng)
        if stars is not None:
            return {"n": n, "k": k, "stars": stars}


def _orders(k: int, lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2 * k), hi + 1) if admissible(n, k)]


# --- workloads ----------------------------------------------------------------

LARGE_BIG_TIER = [(1201, 3), (305, 4), (301, 3), (301, 5), (300, 3)]
LARGE_SMALL_TIER = [(n, k) for k in (3, 4, 5) for n in _orders(k, 150, 176)][:35]


def large_threshold(rng: Random, tiny: bool) -> list[dict]:
    """Threshold designs from n = 150 to n = 1201, largest first.

    The (n, k) grid is fixed; the seed draws the stars and, on every fourth
    order and on (300, 3), a star count below u(n, k) so padding runs.  The
    orders below 200 run three times per pass, which gives the latency
    percentiles more samples without repeating the slow large orders.
    """
    if tiny:
        grid = [(31, 3), (30, 3), (33, 4), (26, 5)]
    else:
        grid = LARGE_BIG_TIER + LARGE_SMALL_TIER
    slots = []
    for i, (n, k) in enumerate(grid):
        u = threshold(n, k)
        m = rng.randint(u // 2, u - 1) if (i % 4 == 3 or (n, k) == (300, 3)) else u
        slots.append({"kind": "complete", "within": True, "weight": 3 if n < 200 else 1,
                      **_design(rng, n, k, m)})
    return slots


def small_mixed(rng: Random, tiny: bool) -> list[dict]:
    """Designs with n <= 40, k = 2..5, star counts uniform in [0, u].

    The admissible orders are taken in turn.  One design in five sits
    exactly at u, so every construction regime runs.
    """
    pairs = [(n, k) for k in range(2, 6) for n in _orders(k, 2 * k, 40)]
    slots = []
    for i in range(40 if tiny else 1000):
        n, k = pairs[i % len(pairs)]
        u = threshold(n, k)
        m = u if rng.random() < 0.2 else rng.randint(0, u)
        slots.append({"kind": "complete", "within": True, **_design(rng, n, k, m)})
    return slots


def over_threshold(rng: Random, tiny: bool) -> list[dict]:
    """Inputs over u(n, k), interleaved in a seeded order.

    * ``gen_complete``: complete() on gen_uncompletable(n, k) for every
      admissible order 2k <= n <= 120, k = 2..5;
    * ``complete``: random designs with u + 1 .. u + 3 stars on the
      admissible orders n <= 12, in turn;
    * ``has_completion``: n = 15 and 16, k = 5 designs with u + 1 .. u + 6
      stars and no blocked edge, under the fixed oracle budget.
    """
    top, counts = (30, (8, 10)) if tiny else (120, (400, 200))
    slots = [{"kind": "gen_complete", "n": n, "k": k}
             for k in range(2, 6) for n in _orders(k, 2 * k, top)]
    small = [(n, k) for k in range(2, 6) for n in _orders(k, 2 * k, 12)]
    for i in range(counts[0]):
        n, k = small[i % len(small)]
        slots.append({"kind": "complete", "within": False, **_over_design(rng, n, k, 3)})
    for i in range(counts[1]):
        while True:
            doc = _over_design(rng, 15 + i % 2, 5, 6)
            if not has_blocked_edge(doc["n"], doc["k"], doc["stars"]):
                break
        slots.append({"kind": "has_completion", **doc})
    rng.shuffle(slots)
    return slots


def cli_cold(rng: Random, tiny: bool) -> list[dict]:
    """Documents for cold ``stardeck`` runs, n = 9..61, k = 3..5.

    Half the runs are ``complete`` (one in four of them on a blocked design),
    a quarter ``verify`` (two on truncated documents, which must exit 2) and
    a quarter ``oracle`` on n <= 12 (one in three on a blocked design).  The
    orders are taken in turn; the seed draws the stars.
    """
    big = [(n, k) for k in range(3, 6) for n in _orders(k, 9, 61)]
    small = [(n, k) for k in range(3, 6) for n in _orders(k, 9, 12)]
    total = 8 if tiny else 60
    slots = []
    for i in range(total):
        if i % 4 in (0, 1):
            command, (n, k), blocked = "complete", big[(i * 5) % len(big)], i % 8 == 1
        elif i % 4 == 2:
            command, (n, k), blocked = "verify", big[(i * 5) % len(big)], False
        else:
            command, (n, k), blocked = "oracle", small[i % len(small)], i % 12 == 3
        if blocked:
            doc = {"n": n, "k": k, "stars": blocked_stars(n, k, rng)}
        else:
            doc = _design(rng, n, k, rng.randint(0, threshold(n, k)))
        slot = {"kind": "cli", "command": command, "blocked": blocked,
                "truncated": command == "verify" and i % 32 == 2,
                **doc}
        slots.append(slot)
    return slots


WORKLOADS = {
    "large-threshold": large_threshold,
    "small-mixed": small_mixed,
    "over-threshold": over_threshold,
    "cli-cold": cli_cold,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    return WORKLOADS[workload](Random(f"{workload}:{seed}"), tiny)


def digest(slots: list[dict]) -> str:
    text = json.dumps(slots, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
