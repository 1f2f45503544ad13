"""The answers on a fixed-seed corpus of designs, pinned by one digest.

Every input here must keep its outcome, reason, certificate and trace, and
its ``has_completion`` answer, whatever the construction's stars turn out to
be: the stars are left out of the digest on purpose.
"""

from __future__ import annotations

import hashlib
import json
import random

from stardeck import complete, has_completion, is_admissible, random_design, threshold_u

# recorded when the test was added; any change to an answer moves it
CORPUS_SHA256 = "ebecbe2f61ca4778edc0f621680981f6cea87b5df6330aef3bb4e71a35fec8b4"


def _corpus() -> list:
    """320 seeded designs: 160 with 0..u stars on the admissible orders
    2k <= n <= 40, k = 2..5, one in five at u; 20 that the order rules
    refuse; and 140 with u + 1 .. u + 3 stars on the admissible orders
    2k <= n <= 16."""
    rng = random.Random(33)

    def draw(pairs: list, count: int, stars) -> list:
        designs = []
        while len(designs) < count:
            n, k = pairs[len(designs) % len(pairs)]
            try:
                designs.append(random_design(n, k, stars(threshold_u(n, k)), rng))
            except ValueError:
                continue  # no further star fits; draw again
        return designs

    def orders(top: int) -> list:
        return [(n, k) for k in range(2, 6) for n in range(2 * k, top + 1)
                if is_admissible(n, k)]

    refused = [(n, k) for k in range(2, 6) for n in range(2, 41)
               if n < 2 * k or not is_admissible(n, k)]
    return [
        *draw(orders(40), 160,
              lambda u: u if rng.random() < 0.2 else rng.randint(0, u)),
        *draw(refused[::7], 20, lambda u: rng.randint(0, 2)),
        *draw(orders(16), 140, lambda u: u + rng.randint(1, 3)),
    ]


def test_corpus_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    answers = set()
    steps = ""
    for d in _corpus():
        result = complete(d, oracle_budget=1000)
        answer = [result.outcome, result.reason, result.certificate, list(result.trace),
                  has_completion(d, budget=1000)]
        digest.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
        answers.add(result.reason or result.outcome)
        steps += " " + " ".join(result.trace)
    # the corpus reaches every construction regime and every kind of answer
    # but the rare odd component and a search that runs out of budget
    assert answers == {"completed", "not-admissible", "order-too-small",
                       "blocked-edge", "oracle"}
    for step in ("pad+", "reduce@", "construction=2star", "construction=relabel-2k",
                 "construction=small-order", "construction=suitable", "repair+",
                 "certificate=oracle"):
        assert step in steps
    assert digest.hexdigest() == CORPUS_SHA256
