"""Seeded benchmark of stardeck: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``.
Inputs are generated from the seed before timing starts.  The slots of a
workload are run in order, as whole passes, until the operations have taken
``--seconds`` in total.  Latency percentiles are taken over every operation
of the run, and ``ops_per_s`` is their count over their summed time.  Every
time is scaled to the reference speed of ``speed.py``, measured beside the
operations in the same run; the raw values go in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, one pass with spans around the public functions (self times and
counts) and one pass with spans and tracemalloc (memory peaks), and prints
the per-layer metrics.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; spans and a
detailed result are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import inputs
from ops import CliRunner, LibraryRunner
from speed import Speed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 9
MEMORY_PASS_DEADLINE_S = 80  # the memory pass starts no slot after this
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("edges_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("ok_share", "ratio", "higher"),
    ("decided_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

PATHS = ("2star", "relabel-2k", "reduction", "small-order", "suitable", "over-threshold")
MODULES = ("designs", "precentral", "realize", "completion", "extremal", "oracle", "cli")

# name, unit, better; README.md maps each to the end-to-end metric it drives
PER_LAYER = [
    ("designs.validate.calls", "count", "lower"),
    ("designs.validate.self_ms", "ms", "lower"),
    ("designs.leftover.calls", "count", "lower"),
    ("designs.leftover.self_ms", "ms", "lower"),
    ("designs.leftover.edges", "count", "lower"),
    ("designs.parse.self_ms", "ms", "lower"),
    ("designs.dump.self_ms", "ms", "lower"),
    ("designs.peak_mb", "MB", "lower"),
    ("precentral.minimal.self_ms", "ms", "lower"),
    ("precentral.suitable.calls", "count", "lower"),
    ("precentral.suitable.self_ms", "ms", "lower"),
    ("precentral.find_bad.self_ms", "ms", "lower"),
    ("precentral.repairs", "count", "lower"),
    ("precentral.peak_mb", "MB", "lower"),
    ("realize.calls", "count", "lower"),
    ("realize.self_ms", "ms", "lower"),
    ("realize.edges", "count", "higher"),
    ("realize.edges_per_s", "1/s", "higher"),
    ("realize.infeasible", "count", "lower"),
    ("realize.peak_mb", "MB", "lower"),
    ("completion.complete.calls", "count", "lower"),
    ("completion.complete.self_ms", "ms", "lower"),
    ("completion.pad.self_ms", "ms", "lower"),
    ("completion.stars_padded", "count", "lower"),
    ("completion.reduce.calls", "count", "lower"),
    ("completion.reduce.self_ms", "ms", "lower"),
    ("completion.decompose_2stars.self_ms", "ms", "lower"),
    ("completion.small_order.self_ms", "ms", "lower"),
] + [
    (f"completion.path.{p}", "count", "higher")
    for p in PATHS
] + [
    ("completion.peak_mb", "MB", "lower"),
    ("extremal.check_blocked_edge.calls", "count", "lower"),
    ("extremal.check_blocked_edge.self_ms", "ms", "lower"),
    ("extremal.certified", "ratio", "higher"),
    ("extremal.gen_uncompletable.self_ms", "ms", "lower"),
    ("extremal.peak_mb", "MB", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.self_ms", "ms", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("oracle.nodes_per_s", "1/s", "higher"),
    ("oracle.budget_exceeded", "count", "lower"),
    ("oracle.peak_mb", "MB", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.exit_mismatch", "count", "lower"),
    ("cli.peak_mb", "MB", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.tracemalloc_peak_mb", "MB", "lower"),
    ("trace.memory_coverage", "ratio", "higher"),
]


def is_over(slot: dict) -> bool:
    """True for inputs over u(n, k), where unknown is an allowed answer."""
    if slot["kind"] == "complete":
        return not slot["within"]
    if slot["kind"] == "cli":
        return slot["blocked"]
    return True


class Tally:
    """Counts and per-slot latencies of the operations of one phase."""

    def __init__(self, size: int) -> None:
        self.latency: list[list[float]] = [[] for _ in range(size)]
        self.busy = self.covered = 0.0
        self.ops = self.failed = self.rejected = self.exit_mismatch = 0
        self.over = self.unknown = self.rss_kb = self.passes = 0
        self.edges = 0
        self.paths: Counter = Counter()
        self.errors: Counter = Counter()

    def add(self, index: int, slot: dict, op) -> None:
        self.latency[index].append(op.seconds)
        self.busy += op.seconds
        self.covered += op.covered_s
        self.ops += 1
        self.over += int(is_over(slot))
        self.rss_kb = max(self.rss_kb, op.rss_kb)
        if op.error is not None:
            self.failed += 1
            self.rejected += int(op.rejected)
            self.exit_mismatch += int(op.exit_mismatch)
            self.errors[op.error] += 1
            return
        self.unknown += int(op.unknown)
        self.edges += op.edges
        if op.path:
            self.paths[op.path] += 1


def pass_order(slots: list[dict]) -> list[int]:
    """Slot indices of one pass: every slot, then the repeats of weighted ones.

    A slot with ``weight`` w runs w times per pass, its runs spread over
    the pass, so they meet different spells of the machine.
    """
    rounds = max(slot.get("weight", 1) for slot in slots)
    return [i for r in range(rounds) for i, slot in enumerate(slots)
            if slot.get("weight", 1) > r]


def run_phase(runner, slots: list[dict], tally: Tally, seconds: float, speed: Speed) -> None:
    """Untraced whole passes over the slots until their operations took ``seconds``."""
    order = pass_order(slots)
    while True:
        for index in order:
            op = runner.run(index, slots[index], "plain")
            tally.add(index, slots[index], op)
            speed.after(op.seconds)
        tally.passes += 1
        if tally.busy >= seconds:
            return


def run_traced(runner, slots: list[dict], plain: Tally | None, traced: Tally,
               tracer: Tracer, mode: str, speed: Speed | None = None,
               deadline: float = math.inf) -> None:
    """One traced pass; each slot also runs untraced unless ``plain`` is None.

    ``speed``, if given, samples the reference loop beside the operations.

    The untraced run comes right before the traced one on even slots and
    right after it on odd slots, which keeps slow spells of the machine and
    warm caches out of the traced-over-untraced ratio.  Starts no slot after
    ``deadline``.
    """
    runner.tracer = tracer
    for index, slot in enumerate(slots):
        if time.monotonic() > deadline:
            return
        if plain is not None and index % 2 == 0:
            untraced(runner, index, slot, plain, speed)
        tracer.op = traced.ops
        if not isinstance(runner, CliRunner):
            tracer.install()
        try:
            op = runner.run(index, slot, mode)
        finally:
            tracer.uninstall()
        traced.add(index, slot, op)
        if speed is not None:
            speed.after(op.seconds)
        if plain is not None and index % 2 == 1:
            untraced(runner, index, slot, plain, speed)
    if plain is not None:
        plain.passes += 1
    traced.passes += 1


def untraced(runner, index: int, slot: dict, tally: Tally, speed: Speed) -> None:
    op = runner.run(index, slot, "plain")
    tally.add(index, slot, op)
    speed.after(op.seconds)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def beyond(count: int, p: float) -> int:
    return count - math.ceil(p / 100 * count)


def tail(pass_size: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it in one pass.

    A run makes one pass or more, so the tail has at least ten samples
    beyond it in every run, and its percentile does not change with the
    number of passes that fit.
    """
    return next((p for p in TAIL_LADDER if beyond(pass_size, p) >= 10), 100.0)


def end_to_end(tally: Tally, times: list[float], pass_size: int, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """The metrics over ``times``, the time of every operation of the run."""
    tail_p = tail(pass_size)
    ok = tally.ops - tally.failed
    values = {
        "ops_per_s": len(times) / sum(times),
        "edges_per_s": tally.edges / sum(times),
        "latency_p50_ms": percentile(times, 50) * 1000,
        "latency_tail_ms": percentile(times, tail_p) * 1000,
        "ok_share": ok / tally.ops,
        "decided_share": (ok - tally.unknown) / ok if ok else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    detail = {"tail_percentile": tail_p, "tail_samples_beyond": beyond(len(times), tail_p),
              "latency_samples": len(times)}
    return values, detail


def per_layer(summary: dict, base: Tally, spans: Tally, memory: Tally,
              slots: int, import_ms: list[float], factor: float) -> dict:
    """Times and rates are scaled to the reference speed, like the end-to-end ones."""
    stats, peaks = summary["stats"], summary["peaks"]

    def get(span: str, key: str = "calls") -> float:
        return stats.get(span, {}).get(key, 0)

    def ms(span: str) -> float:
        return get(span, "self_s") * 1000 * factor

    def rate(count: float, seconds: float) -> float:
        return count / (seconds * factor) if seconds else 0.0

    def module_peak(module: str) -> float:
        return max(v for k, v in peaks.items() if k.split(".")[0] == module) / 2**20

    values = {
        "designs.validate.calls": get("designs.validate"),
        "designs.validate.self_ms": ms("designs.validate"),
        "designs.leftover.calls": get("designs.leftover"),
        "designs.leftover.self_ms": ms("designs.leftover"),
        "designs.leftover.edges": get("designs.leftover", "edges"),
        "designs.parse.self_ms": ms("designs.parse"),
        "designs.dump.self_ms": ms("designs.dump"),
        "precentral.minimal.self_ms": ms("precentral.minimal"),
        "precentral.suitable.calls": get("precentral.suitable"),
        "precentral.suitable.self_ms": ms("precentral.suitable"),
        "precentral.find_bad.self_ms": ms("precentral.find_bad"),
        "precentral.repairs": get("precentral.suitable", "repairs"),
        "realize.calls": get("realize"),
        "realize.self_ms": ms("realize"),
        "realize.edges": get("realize", "edges"),
        "realize.edges_per_s": rate(get("realize", "edges"), get("realize", "total_s")),
        "realize.infeasible": get("realize", "infeasible"),
        "completion.complete.calls": get("completion.complete"),
        "completion.complete.self_ms": ms("completion.complete"),
        "completion.pad.self_ms": ms("completion.pad"),
        "completion.stars_padded": get("completion.pad", "stars_padded"),
        "completion.reduce.calls": get("completion.reduce"),
        "completion.reduce.self_ms": ms("completion.reduce"),
        "completion.decompose_2stars.self_ms": ms("completion.decompose_2stars"),
        "completion.small_order.self_ms": ms("completion.small_order"),
        "extremal.check_blocked_edge.calls": get("extremal.check_blocked_edge"),
        "extremal.check_blocked_edge.self_ms": ms("extremal.check_blocked_edge"),
        "extremal.certified": (get("extremal.check_blocked_edge", "certified")
                               / get("extremal.check_blocked_edge")
                               if get("extremal.check_blocked_edge") else 0.0),
        "extremal.gen_uncompletable.self_ms": ms("extremal.gen_uncompletable"),
        "oracle.calls": get("oracle.search"),
        "oracle.self_ms": ms("oracle.search") + ms("oracle.has_completion"),
        "oracle.nodes": get("oracle.search", "nodes"),
        "oracle.nodes_per_s": rate(get("oracle.search", "nodes"), get("oracle.search", "total_s")),
        "oracle.budget_exceeded": get("oracle.search", "budget_exceeded"),
        "cli.import_ms": statistics.median(import_ms) * factor if import_ms else 0.0,
        "cli.main.self_ms": ms("cli.main"),
        "cli.exit_mismatch": spans.exit_mismatch,
        "trace.overhead": spans.busy / base.busy,
        "trace.uncovered_share": 1 - spans.covered / spans.busy,
        "trace.tracemalloc_peak_mb": max(peaks.values()) / 2**20,
        "trace.memory_coverage": memory.ops / slots,
    }
    for path in PATHS:
        values[f"completion.path.{path}"] = spans.paths[path]
    for module in MODULES:
        values[f"{module}.peak_mb"] = module_peak(module)
    return values


def measure_setup(env: dict, module: str, ks: list[int], speed: Speed) -> float:
    """Median time, in fresh interpreters, to import and finish lazy set-up.

    Lazy set-up is the canonical order-2k design of every k the workload
    uses, built by completing an empty design of that order.  ``speed``
    samples the reference loop before each interpreter.
    """
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        f"import {module}\n"
        "from stardeck import PartialDesign, complete\n"
        f"for k in {ks!r}:\n"
        "    complete(PartialDesign(2 * k, k, ()))\n"
        "print(time.perf_counter() - start)\n"
    )
    values = []
    for _ in range(SETUP_RUNS):
        speed.sample()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def import_stardeck():
    if not (SRC / "stardeck" / "__init__.py").is_file():
        raise SystemExit(f"no stardeck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stardeck

    if Path(stardeck.__file__).resolve().parent != (SRC / "stardeck").resolve():
        raise SystemExit(f"imported stardeck from {stardeck.__file__}, not {SRC}")
    return stardeck


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for testing the harness")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    # a bad value here would crash every subcommand; budgets are passed explicitly
    os.environ.pop("STARDECK_ORACLE_BUDGET", None)
    stardeck = import_stardeck()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    slots = inputs.generate(args.workload, args.seed, args.tiny)
    ks = sorted({slot["k"] for slot in slots})
    cli = args.workload == "cli-cold"
    setup_speed, speed = Speed(), Speed()
    setup_s = measure_setup(env, "stardeck.cli" if cli else "stardeck", ks, setup_speed)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracers = {"spans": Tracer(), "memory": Tracer()}
    tracers["memory"].memory = True
    if cli:
        runner = CliRunner(ROOT, workdir, env, tracers["spans"])
    else:
        runner = LibraryRunner(stardeck, tracers["spans"])
    phases = {name: Tally(len(slots)) for name in ("plain", "spans", "memory")}
    try:
        runner.prepare(slots)
        for k in ks:  # lazy set-up happens before timing
            stardeck.complete(stardeck.PartialDesign(2 * k, k, ()))
        if not args.trace:
            run_phase(runner, slots, phases["plain"], args.seconds, speed)
        else:
            run_traced(runner, slots, phases["plain"], phases["spans"], tracers["spans"], "spans",
                       speed)
            tracemalloc.start()
            try:
                run_traced(runner, slots, None, phases["memory"], tracers["memory"], "memory",
                           deadline=started + MEMORY_PASS_DEADLINE_S)
            finally:
                tracemalloc.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = phases["plain"]
    attempted = sum(t.ops for t in phases.values())
    failed = sum(t.failed for t in phases.values())
    rejected = sum(t.rejected for t in phases.values())
    errors = sum((t.errors for t in phases.values()), Counter())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_digest": inputs.digest(slots), "slots": len(slots),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "oracle_budget": inputs.ORACLE_BUDGET,
        "passes": {name: t.passes for name, t in phases.items() if t.ops},
        "failed_share": plain.failed / plain.ops,
        "unknown_share": plain.unknown / plain.over if plain.over else 0.0,
        "rejected": rejected, "errors": dict(errors.most_common(5)),
        "paths": dict(plain.paths),
        "reference_ms": statistics.median(speed.samples) * 1000,
        "reference_samples": len(speed.samples), "speed_factor": speed.factor(),
        "setup_speed_factor": setup_speed.factor(),
    }
    if args.trace:
        summary = {"stats": tracers["spans"].stats, "peaks": tracers["memory"].peaks}
        values = per_layer(summary, plain, phases["spans"], phases["memory"],
                           len(slots), runner.import_ms if cli else [], speed.factor())
        units = {name: unit for name, unit, _ in PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracers["spans"].spans()), encoding="utf-8")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rss_mb = (plain.rss_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024
        pass_size = len(pass_order(slots))
        raw, _ = end_to_end(plain, [t for t, _ in speed.ops], pass_size, setup_s, rss_mb)
        values, extra = end_to_end(plain, speed.scaled(), pass_size,
                                   setup_s * setup_speed.factor(), rss_mb)
        detail.update(extra, raw=raw)
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": rejected == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    slot_ms = [[round(t * 1000, 3) for t in times] for times in plain.latency]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, **result, "slot_latency_ms": slot_ms}), encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
