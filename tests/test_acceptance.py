"""Acceptance suite: seven criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each criterion is a single
test whose PASSED/FAILED row is the verdict.  Every criterion also asserts
its own wall-clock budget.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from stardeck import (
    Graph,
    Infeasible,
    PartialDesign,
    check_blocked_edge,
    complete,
    decompose_2stars,
    decompose_exhaustive,
    design_exists,
    find_bad,
    gen_uncompletable,
    is_admissible,
    minimal,
    random_design,
    realize,
    suitable,
    threshold_u,
)

from conftest import (
    delta_t,
    sorted_edges,
    subset_check,
    threshold_u_ab,
    verify_decomposition,
)

ORACLE_REACH = {3: range(2, 10), 4: range(8, 9)}  # n ranges the oracle can settle


def _report(num: int, name: str, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {num} ({name}): PASS — {detail} [{elapsed:.2f}s]")


def _criterion2_designs(k: int, n: int):
    """The 200 seeded designs per (k, n) shared by criteria 2 and 7."""
    rng = random.Random(1_000_003 * k + n)
    u = threshold_u(n, k)
    for _ in range(200):
        m = rng.randint(0, u)
        yield random_design(n, k, m, rng)


def test_criterion_1_threshold_table():
    started = time.perf_counter()
    checks = 0
    for k in range(2, 13):
        for n in range(2, 201):
            assert threshold_u(n, k) == threshold_u_ab(n, k)
            if not is_admissible(n, k):
                continue
            reference = (
                2 * ((n - 2) // k) - 1 if n % k != 1 else 2 * (n - 1) // k - 2
            )
            assert threshold_u(n, k) == reference
            checks += 1
    assert checks >= 300
    _report(1, "threshold table", f"{checks} admissible orders, both forms", started, 1.0)


def test_criterion_2_completion_guarantee():
    started = time.perf_counter()
    completed = 0
    for k in (2, 3, 4):
        for n in range(2 * k, 31):
            if not design_exists(n, k):
                continue
            for d in _criterion2_designs(k, n):
                result = complete(d)
                assert result.outcome == "completed", (k, n, d)
                full = result.design
                assert full.validate() == []
                assert full.leftover().edge_count == 0
                assert set(d.stars) <= set(full.stars)
                completed += 1
    assert completed == 200 * (14 + 17 + 6)
    _report(2, "completion guarantee", f"{completed} designs completed", started, 300.0)


def test_criterion_3_tightness():
    started = time.perf_counter()
    generated = 0
    for k in range(2, 9):
        for n in range(2, 61):
            if not is_admissible(n, k):
                continue
            d = gen_uncompletable(n, k)
            assert d.validate() == []
            assert len(d.stars) == threshold_u(n, k) + 1
            assert check_blocked_edge(d) is not None
            generated += 1
    refuted = 0
    for k, n in ((3, 6), (3, 7), (3, 9), (4, 8)):
        d = gen_uncompletable(n, k)
        assert decompose_exhaustive(d.leftover(), d.k).status == "none"
        refuted += 1
    _report(
        3,
        "tightness",
        f"{generated} extremal designs certified, {refuted} oracle refutations",
        started,
        120.0,
    )


def test_criterion_4_realizability_equivalence():
    started = time.perf_counter()
    rng = random.Random(424_243)
    feasible = infeasible = 0
    for _ in range(500):
        k = rng.choice([2, 3, 4])
        n = rng.randint(2, 10)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        edges = pool[: rng.randint(0, len(pool))]
        edges = edges[: len(edges) - len(edges) % k]
        g = Graph.from_edges(n, edges)
        values = [0] * n
        for _ in range(g.edge_count // k):
            values[rng.randrange(n)] += 1
        out = realize(g, k, values)
        verdict = subset_check(g, k, values)
        if isinstance(out, Infeasible):
            infeasible += 1
            assert verdict is not None
            assert delta_t(g, k, values, out.vertices) < 0
        else:
            feasible += 1
            assert verdict is None
            assert verify_decomposition(g, k, out, values)
    assert feasible + infeasible == 500
    assert feasible >= 50 and infeasible >= 50
    _report(
        4,
        "realizability equivalence",
        f"500 instances ({feasible} feasible, {infeasible} infeasible)",
        started,
        120.0,
    )


def test_criterion_5_precentral_invariants():
    started = time.perf_counter()
    rng = random.Random(555_001)
    orders = (13, 15, 16, 18)
    instances = 0
    while instances < 300:
        n = orders[instances % len(orders)]
        d = random_design(n, 3, threshold_u(n, 3), rng)
        if d.is_reducible():
            continue
        left = d.leftover()
        m = minimal(left, 3)
        s = suitable(left, 3)
        bound = Fraction(5, 6)
        for p in (m, s):
            assert sum(p.pstar(x) for x in range(n)) == 0
            assert all(-bound <= p.pstar(x) <= bound for x in range(n))
        residues = m.pstar_all()
        assert max(residues) - min(residues) <= 1
        assert find_bad(s, left, 3) is None
        for _ in range(40):
            t = rng.randint(1, n - 1)
            subset = rng.sample(range(n), t)
            assert sum(m.pstar(x) for x in subset) <= Fraction(t * (n - t), n)
            s_bound = (
                Fraction(t * (2 * n - 2 * t - 1), 2 * (n - 1))
                if t < Fraction(n, 2)
                else Fraction((2 * t - 1) * (n - t), 2 * (n - 1))
            )
            assert sum(s.pstar(x) for x in subset) <= s_bound
        instances += 1

    exhaustive = 0
    for n in (6, 7, 9, 10):
        for _ in range(10):
            d = random_design(n, 3, rng.randint(0, threshold_u(n, 3)), rng)
            left = d.leftover()
            m = minimal(left, 3)
            s = suitable(left, 3)
            for t in range(1, n):
                min_bound = Fraction(t * (n - t), n)
                s_bound = (
                    Fraction(t * (2 * n - 2 * t - 1), 2 * (n - 1))
                    if t < Fraction(n, 2)
                    else Fraction((2 * t - 1) * (n - t), 2 * (n - 1))
                )
                for subset in combinations(range(n), t):
                    assert sum(m.pstar(x) for x in subset) <= min_bound
                    assert sum(s.pstar(x) for x in subset) <= s_bound
            exhaustive += 1
    _report(
        5,
        "precentral invariants",
        f"{instances} threshold leftovers, {exhaustive} exhaustive subset audits",
        started,
        180.0,
    )


def test_criterion_6_2star_decomposition():
    started = time.perf_counter()
    rng = random.Random(666_067)

    def connected_graph(n: int, want_even: bool) -> Graph:
        edges = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            a, b = order[rng.randrange(i)], order[i]
            edges.add((min(a, b), max(a, b)))
        for e in combinations(range(n), 2):
            if e not in edges and rng.random() < 0.3:
                edges.add(e)
        if (len(edges) % 2 == 0) != want_even:
            spare = [e for e in combinations(range(n), 2) if e not in edges]
            if spare:
                edges.add(spare[0])
            else:
                # complete graph: drop one cycle edge, connectivity survives
                edges.discard(next(iter(edges)))
        return Graph.from_edges(n, sorted(edges))

    decomposed = rejected = 0
    while decomposed < 300:
        g = connected_graph(rng.randint(2, 12), want_even=True)
        stars = decompose_2stars(g)
        assert not isinstance(stars, Infeasible), g
        assert verify_decomposition(g, 2, stars)
        decomposed += 1
    while rejected < 100:
        g = connected_graph(rng.randint(3, 12), want_even=False)
        out = decompose_2stars(g)
        assert isinstance(out, Infeasible)
        assert out.kind == "odd-component"
        inside = sum(1 for a, b in sorted_edges(g) if a in out.vertices and b in out.vertices)
        assert inside % 2 == 1
        rejected += 1
    _report(
        6,
        "2-star decomposition",
        f"{decomposed} even graphs decomposed, {rejected} odd graphs rejected",
        started,
        60.0,
    )


def test_criterion_7_oracle_agreement():
    started = time.perf_counter()
    agreed = 0
    for k, reach in ORACLE_REACH.items():
        for n in range(2 * k, 31):
            if n not in reach or not design_exists(n, k):
                continue
            for d in _criterion2_designs(k, n):
                assert decompose_exhaustive(d.leftover(), d.k).status == "found"
                assert complete(d).outcome == "completed"
                agreed += 1
    for k, n in ((3, 6), (3, 7), (3, 9), (4, 8)):
        d = gen_uncompletable(n, k)
        assert decompose_exhaustive(d.leftover(), d.k).status == "none"
        assert complete(d).outcome == "impossible"
        agreed += 1
    assert agreed >= 600
    _report(7, "oracle agreement", f"{agreed} verdicts agree", started, 300.0)
