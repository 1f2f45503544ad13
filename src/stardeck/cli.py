"""Command line interface.

Exit codes: 0 for success, 1 for a certified or negative answer (including
"unknown" when the exhaustive search runs out of its node budget), 2 for
input errors (bad arguments, unparseable files, invalid designs, designs too
large for the memory or the call stack at hand) and for output that cannot be
written.
"""

from __future__ import annotations

import argparse
import os
import sys
from random import Random

from .completion import complete
from .designs import (
    PartialDesign,
    canonical_dumps,
    design_to_doc,
    design_exists,
    dumps_design,
    is_admissible,
    loads_design,
    random_design,
    threshold_u,
)
from .extremal import check_blocked_edge, gen_uncompletable
from .oracle import DEFAULT_BUDGET, has_completion
from .precentral import BadEdge, BadVertex, find_bad, minimal, suitable


def _err(message: str) -> None:
    # best effort: a closed or full stderr must not change the exit code
    if sys.stderr is None:
        return
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _load_design(path: str) -> PartialDesign:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return loads_design(text)


def _budget(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    return args.budget


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_threshold(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if n < 2 or k < 2:
        raise ValueError("threshold requires n >= 2 and k >= 2")
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
    result = complete(_load_design(args.file), oracle_budget=_budget(args))
    if args.json:
        print(canonical_dumps(result.to_doc()))
        return 0 if result.outcome == "completed" else 1
    if result.outcome == "completed":
        assert result.design is not None
        # written first, so the trace line never follows a failed write
        print(dumps_design(result.design), flush=True)
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
        raise ValueError("gen-random requires n >= 1, k >= 2, m >= 0")
    try:
        design = random_design(args.n, args.k, args.m, Random(args.seed))
    except ValueError as exc:
        _err(str(exc))
        return 1
    print(dumps_design(design))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    answer = has_completion(_load_design(args.file), budget=_budget(args))
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


_BUDGET_HELP = (f"search node budget (default: {DEFAULT_BUDGET:,}); it counts the star "
                "placements that pass the blocked-edge check, not every candidate "
                "tried, so it does not bound the time")


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse drops a failed write; main() must see it and exit 2.
        # Subcommand parsers are of this class too.
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
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

    p = sub.add_parser(
        "oracle",
        help="completability check: order rules, the guarantee, then blocked "
             "edge, 2-star pairing, construct and search",
    )
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=_BUDGET_HELP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("precentral", help="minimal/suitable precentral report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_precentral)

    return parser


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return 0 if exc.code is None else int(exc.code)
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # started with stdout closed
        _err("cannot write output: standard output is closed")
        return 2
    try:
        # parsing too, so that help that cannot be written exits 2
        code = _run(argv)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # input errors: an unreadable, invalid or too large design, or
        # arguments out of range, --budget among them
        _err(str(exc))
        return 2
    except (MemoryError, OverflowError):
        # an order too large for this machine is an input error too, whether
        # its tables exhaust memory or its size does not fit in a C index
        _err("out of memory: the design is too large for this machine")
        return 2
    except OSError as exc:
        # a full disk or a pipe closed by its reader; stdout then points at
        # the null device, so the flush at shutdown has nothing to report
        _err(f"cannot write output: {exc}")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
