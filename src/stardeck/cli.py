"""Command line interface.

Exit codes: 0 for success, 1 for a certified or negative answer (including
"unknown" where only an out-of-reach exhaustive search could decide), 2 for
input errors (bad arguments, unparseable files, invalid designs).
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from .completion import complete, decompose_2stars
from .designs import (
    Graph,
    PartialDesign,
    canonical_dumps,
    design_to_doc,
    design_exists,
    dumps_design,
    is_admissible,
    loads_design,
    random_design,
    threshold_u,
    threshold_u_ab,
)
from .extremal import check_blocked_edge, gen_uncompletable
from .oracle import has_completion
from .precentral import BadEdge, BadVertex, delta_t, find_bad, minimal, suitable
from .realize import Infeasible, realize, subset_check, verify_decomposition


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_design(path: str) -> PartialDesign:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return loads_design(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_threshold(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if n < 2 or k < 2:
        _err("threshold requires n >= 2 and k >= 2")
        return 2
    adm = is_admissible(n, k)
    exists = design_exists(n, k)
    u = threshold_u(n, k)
    if args.json:
        print(canonical_dumps(
            {"n": n, "k": k, "admissible": adm, "design_exists": exists, "u": u}
        ))
    else:
        print(f"n={n} k={k}")
        print(f"admissible: {_yesno(adm)}")
        print(f"design-exists: {_yesno(exists)}")
        print(f"u: {u}")
    return 0


def cmd_complete(args: argparse.Namespace) -> int:
    result = complete(_load_design(args.file), oracle_budget=args.budget)
    if args.json:
        print(canonical_dumps(result.to_doc()))
        return 0 if result.outcome == "completed" else 1
    if result.outcome == "completed":
        assert result.design is not None
        print(dumps_design(result.design))
        _err("completed: " + " > ".join(result.trace))
        return 0
    print(f"{result.outcome}: {result.reason}")
    cert = result.certificate or {}
    if "blocked_edge" in cert:
        a, b = cert["blocked_edge"]
        da, db = cert["degrees"]
        print(f"blocked edge {{{a},{b}}} with leftover degrees {da},{db}")
    if "odd_component" in cert:
        print("odd component: " + " ".join(str(v) for v in cert["odd_component"]))
    if "oracle_nodes" in cert:
        print(f"exhaustive search refuted completion ({cert['oracle_nodes']} nodes)")
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    design = _load_design(args.file)
    violations = design.validate()
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        return 1
    # stars of a valid design cover k distinct edges each
    covered = design.k * len(design.stars)
    left = design.n * (design.n - 1) // 2 - covered
    print(f"valid partial design: n={design.n} k={design.k} stars={len(design.stars)}")
    print(f"covered-edges: {covered} leftover-edges: {left}")
    print(f"full-design: {_yesno(left == 0)}")
    return 0


def cmd_gen_uncompletable(args: argparse.Namespace) -> int:
    design = gen_uncompletable(args.n, args.k)
    cert = check_blocked_edge(design)
    assert cert is not None
    doc = design_to_doc(design)
    doc["certificate"] = cert.to_doc()
    print(canonical_dumps(doc))
    return 0


def cmd_gen_random(args: argparse.Namespace) -> int:
    if args.n < 1 or args.k < 2 or args.m < 0:
        _err("gen-random requires n >= 1, k >= 2, m >= 0")
        return 2
    try:
        design = random_design(args.n, args.k, args.m, Random(args.seed))
    except ValueError as exc:
        _err(str(exc))
        return 1
    print(dumps_design(design))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    answer = has_completion(_load_design(args.file), budget=args.budget)
    print(answer)
    return 0 if answer == "yes" else 1


def _flaw_doc(flaw: BadVertex | BadEdge | None) -> dict | None:
    if flaw is None:
        return None
    if isinstance(flaw, BadVertex):
        return {"kind": "vertex", "vertex": flaw.vertex}
    return {"kind": "edge", "edge": [flaw.y1, flaw.y2]}


def _flaw_text(flaw: BadVertex | BadEdge | None) -> str:
    if flaw is None:
        return "none"
    if isinstance(flaw, BadVertex):
        return f"vertex {flaw.vertex}"
    return f"edge {flaw.y1}-{flaw.y2}"


def cmd_precentral(args: argparse.Namespace) -> int:
    design = _load_design(args.file)
    leftover = design.leftover()
    if leftover.edge_count % design.k != 0:
        print(
            f"leftover edge count {leftover.edge_count} is not divisible"
            f" by k={design.k}; no precentral function exists"
        )
        return 1
    base = minimal(leftover, design.k)
    flaw = find_bad(base, leftover, design.k)
    repaired = suitable(leftover, design.k)
    residual = find_bad(repaired, leftover, design.k)
    if args.json:
        print(canonical_dumps({
            "n": design.n,
            "k": design.k,
            "leftover_edges": leftover.edge_count,
            "minimal": list(base.values),
            "minimal_pstar": [str(f) for f in base.pstar_all()],
            "flaw": _flaw_doc(flaw),
            "suitable": list(repaired.values),
            "suitable_pstar": [str(f) for f in repaired.pstar_all()],
            "residual_flaw": _flaw_doc(residual),
        }))
        return 0
    print(f"n={design.n} k={design.k} leftover-edges={leftover.edge_count}")
    print("minimal: " + " ".join(str(v) for v in base.values))
    print("minimal-pstar: " + " ".join(str(f) for f in base.pstar_all()))
    print(f"flaw: {_flaw_text(flaw)}")
    if flaw is not None:
        print("suitable: " + " ".join(str(v) for v in repaired.values))
        print("suitable-pstar: " + " ".join(str(f) for f in repaired.pstar_all()))
        print(f"residual-flaw: {_flaw_text(residual)}")
    return 0


# --- selftest ---------------------------------------------------------------

def _random_instance(rng: Random, n_max: int, k_choices: list[int]):
    n = rng.randint(2, n_max)
    k = rng.choice(k_choices)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5
    ]
    rng.shuffle(edges)
    while len(edges) % k != 0:
        edges.pop()
    graph = Graph.from_edges(n, edges)
    values = [0] * n
    for _ in range(len(edges) // k):
        values[rng.randrange(n)] += 1
    return graph, k, values


def _random_even_connected(rng: Random, n_max: int) -> Graph:
    while True:
        n = rng.randint(3, max(3, n_max))
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges = {(min(a, b), max(a, b)) for a, b in edges}
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) not in edges and rng.random() < 0.3:
                    edges.add((a, b))
        if len(edges) % 2 == 1:
            absent = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if (a, b) not in edges
            ]
            if not absent:
                continue
            edges.add(absent[rng.randrange(len(absent))])
        return Graph.from_edges(n, edges)


def _suite_thresholds(k_max: int, n_max: int, trials: int, rng: Random) -> int:
    checks = 0
    for k in range(2, k_max + 1):
        for n in range(2, max(60, n_max) + 1):
            assert threshold_u(n, k) == threshold_u_ab(n, k), (n, k)
            if is_admissible(n, k) and n >= 2 * k:
                u = threshold_u(n, k)
                assert u >= 1 and k * u < n * (n - 1) // 2, (n, k)
            checks += 1
    return checks


def _suite_completions(k_max: int, n_max: int, trials: int, rng: Random) -> int:
    checks = 0
    for k in range(2, k_max + 1):
        for n in range(2 * k, n_max + 1):
            if not is_admissible(n, k):
                continue
            u = threshold_u(n, k)
            for _ in range(trials):
                design = random_design(n, k, rng.randint(0, u), rng)
                result = complete(design)
                assert result.outcome == "completed" and result.design is not None
                assert not result.design.validate()
                assert result.design.leftover().edge_count == 0
                assert set(design.stars) <= set(result.design.stars)
                checks += 1
    return checks


def _suite_tightness(k_max: int, n_max: int, trials: int, rng: Random) -> int:
    checks = 0
    for k in range(2, k_max + 1):
        for n in range(2, n_max + 1):
            if not is_admissible(n, k):
                continue
            design = gen_uncompletable(n, k)
            assert len(design.stars) == threshold_u(n, k) + 1
            assert not design.validate()
            assert check_blocked_edge(design) is not None
            if n <= 9:
                assert has_completion(design) == "no", (n, k)
            checks += 1
    return checks


def _suite_realization(k_max: int, n_max: int, trials: int, rng: Random) -> int:
    checks = 0
    for _ in range(trials):
        graph, k, values = _random_instance(
            rng, min(10, max(2, n_max)), [x for x in (2, 3, 4) if x <= max(4, k_max)]
        )
        built = realize(graph, k, values)
        audit = subset_check(graph, k, values)
        if isinstance(built, Infeasible):
            assert audit is not None, "realize failed but audit passed"
            assert delta_t(graph, k, values, built.vertices) < 0
        else:
            assert audit is None, "realize succeeded but audit failed"
            assert verify_decomposition(graph, k, built, values)
        checks += 1
    return checks


def _suite_pairing(k_max: int, n_max: int, trials: int, rng: Random) -> int:
    checks = 0
    for _ in range(trials):
        graph = _random_even_connected(rng, min(12, max(3, n_max)))
        stars = decompose_2stars(graph)
        assert not isinstance(stars, Infeasible)
        assert verify_decomposition(graph, 2, stars)
        # grafting a pendant edge makes one component odd
        bumped = Graph.from_edges(
            graph.n + 1, list(graph.edges) + [(0, graph.n)]
        )
        assert isinstance(decompose_2stars(bumped), Infeasible)
        checks += 2
    return checks


_SUITES = [
    ("thresholds", _suite_thresholds, False),
    ("completions", _suite_completions, True),
    ("tightness", _suite_tightness, False),
    ("realization", _suite_realization, True),
    ("2star-pairing", _suite_pairing, True),
]


def cmd_selftest(args: argparse.Namespace) -> int:
    if args.k_max < 2 or args.n_max < 2 or args.trials < 0:
        _err("selftest requires k-max >= 2, n-max >= 2, trials >= 0")
        return 2
    failed = False
    for name, suite, needs_trials in _SUITES:
        if needs_trials and args.trials == 0:
            print(f"selftest {name}: vacuous pass (trials=0)")
            continue
        rng = Random(args.seed)
        try:
            checks = suite(args.k_max, args.n_max, args.trials, rng)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            print(f"selftest {name}: FAIL ({exc!r})")
            failed = True
            continue
        print(f"selftest {name}: ok ({checks} checks)")
    if args.trials == 0:
        print("warning: trials=0 makes the randomized suites vacuous")
    print("selftest: " + ("FAILED" if failed else "OK"))
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stardeck",
        description="Decide, build, and refute completions of partial k-star designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="admissibility and completion threshold")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("complete", help="complete a design document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("verify", help="validate a design document")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "gen-uncompletable", help="threshold-plus-one uncompletable design"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_gen_uncompletable)

    p = sub.add_parser("gen-random", help="seeded random partial design")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("seed", type=int)
    p.set_defaults(func=cmd_gen_random)

    p = sub.add_parser("oracle", help="exhaustive completability check")
    p.add_argument("file")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("precentral", help="minimal/suitable precentral report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_precentral)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--k-max", type=int, default=3, dest="k_max")
    p.add_argument("--n-max", type=int, default=15, dest="n_max")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        return args.func(args)
    except ValueError as exc:
        # input errors: an unreadable or invalid design document, arguments
        # out of range, or a bad STARDECK_ORACLE_BUDGET
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
