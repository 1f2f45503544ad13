"""The reduction step, checked against a reference that renumbers.

``complete`` reduces a threshold design of order n = 1 (mod k) at a vertex
x on the original labels: x's free edges become its stars and the rest is
completed around the isolated x.  The reference below does the same step
the long way round, through the public helpers: renumber the other stars
down to order n - 1, complete that design on its own, renumber its stars
back up, then add x's stars.  Both must give the same document, byte for
byte, trace included.
"""

from __future__ import annotations

import random

from stardeck import (
    CompletionResult,
    PartialDesign,
    Star,
    canonical_dumps,
    complete,
    design_exists,
    pad_to_threshold,
    random_design,
    reduce_design,
    threshold_u,
)


def _reference(design: PartialDesign) -> CompletionResult:
    """complete() of a design whose padding is reducible, by renumbering."""
    n, k = design.n, design.k
    trace = ["validated"]
    u = threshold_u(n, k)
    if len(design.stars) < u:
        trace.append(f"pad+{u - len(design.stars)}")
    smaller, x, removed = reduce_design(pad_to_threshold(design))
    trace.append(f"reduce@{x}")
    sub = complete(smaller)
    assert sub.outcome == "completed"
    # the sub-completion's own steps, without its "validated" and "merged"
    trace.append("recurse{" + ";".join(sub.trace[1:-1]) + "}")
    up = [*range(x), *range(x + 1, n)]
    stars = [Star(up[center], [up[v] for v in leaves])
             for center, leaves in sub.design.stars]
    stars.extend(removed)
    covered = {x}.union(*(leaves for _, leaves in removed))
    free = [v for v in range(n) if v not in covered]
    stars.extend(Star(x, free[i:i + k]) for i in range(0, len(free), k))
    trace.append("merged")
    return CompletionResult("completed", PartialDesign(n, k, tuple(stars)),
                            trace=tuple(trace))


def _reducible_designs():
    """Seeded designs with n <= 40, k = 3..5, whose padding is reducible.

    For k = 2 ``complete`` pairs the leftover and never reduces."""
    rng = random.Random(2024)
    for k in range(3, 6):
        for n in range(2 * k + 1, 41, k):  # n = 1 (mod k)
            if not design_exists(n, k):
                continue
            u = threshold_u(n, k)
            found = 0
            for m in [u, 0, *(rng.randint(0, u) for _ in range(40))]:
                d = random_design(n, k, m, rng)
                if pad_to_threshold(d).is_reducible():
                    yield d
                    found += 1
                    if found == 6:
                        break


def test_reduction_matches_the_renumbering_reference():
    seen = set()
    for d in _reducible_designs():
        r = complete(d)
        assert canonical_dumps(r.to_doc()) == canonical_dumps(_reference(d).to_doc()), d
        [steps] = [t for t in r.trace if t.startswith("recurse{")]
        seen.update("pad+" if s.startswith("pad+") else s
                    for s in steps[len("recurse{"):-1].split(";"))
    # the reduced design is padded, and reaches every construction
    assert seen == {
        "pad+", "construction=relabel-2k", "construction=small-order",
        "construction=suitable",
    }
