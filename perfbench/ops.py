"""Operations: one complete(), one has_completion() or one CLI invocation.

A runner turns a slot from ``inputs`` into a timed call, checks the output
with ``checker`` and returns an ``Op`` record.  Exceptions (RecursionError
and CompletionDefect included) and checker rejections both make the
operation failed; the run goes on.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
from inputs import ORACLE_BUDGET
from tracer import merge_summaries

CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    seconds: float
    error: str | None = None  # exception or checker rejection
    rejected: bool = False  # the checker refused an output
    exit_mismatch: bool = False
    edges: int = 0  # leftover edges covered by a completion
    unknown: bool = False
    path: str | None = None  # complete()'s regime, from its trace
    covered_s: float = 0.0  # time inside top-level traced spans
    rss_kb: int = 0  # peak resident memory of a CLI child


def path_of(trace) -> str:
    """The regime a top-level complete() took, read from its trace."""
    if "over-threshold-attempt" in trace:
        return "over-threshold"
    for entry in trace:
        if entry.startswith("reduce@"):
            return "reduction"
        if entry.startswith("construction="):
            return entry.split("=", 1)[1]
    return "other"


def _stars(design) -> list:
    return [[s.center, sorted(s.leaves)] for s in design.stars]


def _failed(seconds: float, exc: Exception) -> Op:
    return Op(seconds, error=f"{type(exc).__name__}: {exc}"[:300])


class LibraryRunner:
    """Calls the public API in this process; ``tracer`` sees the calls when installed."""

    def __init__(self, stardeck, tracer) -> None:
        self.sd = stardeck
        self.tracer = tracer
        self.objects: list = []

    def prepare(self, slots: list[dict]) -> None:
        sd = self.sd
        self.objects = [
            sd.PartialDesign(s["n"], s["k"], tuple(
                sd.Star(c, frozenset(leaves)) for c, leaves in s["stars"]))
            if "stars" in s else None
            for s in slots
        ]

    def run(self, index: int, slot: dict, mode: str) -> Op:
        sd, design, kind = self.sd, self.objects[index], slot["kind"]
        top_before = self.tracer.top_time
        generated = None
        start = time.perf_counter()
        try:
            if kind == "has_completion":
                result = sd.has_completion(design, budget=ORACLE_BUDGET)
            else:
                if kind == "gen_complete":
                    design = generated = sd.gen_uncompletable(slot["n"], slot["k"])
                result = sd.complete(design, oracle_budget=ORACLE_BUDGET)
        except Exception as exc:  # counted as failed; the run goes on
            op = _failed(time.perf_counter() - start, exc)
            op.covered_s = self.tracer.top_time - top_before
            return op
        seconds = time.perf_counter() - start
        op = Op(seconds, covered_s=self.tracer.top_time - top_before)
        n, k = slot["n"], slot["k"]
        if kind == "has_completion":
            op.unknown = result == "unknown"
            op.error = checker.check_answer(result, within=False)
        else:
            given = _stars(design)
            op.path = path_of(result.trace)
            op.unknown = result.outcome == "unknown"
            if generated is not None:
                op.error = checker.check_extremal(n, k, given) or (
                    None if (result.outcome, result.reason) == ("impossible", "blocked-edge")
                    else f"extremal design ended {result.outcome} ({result.reason})")
            op.error = op.error or checker.check_outcome(
                n, k, given, slot.get("within", False), result.outcome, result.reason,
                result.certificate, _stars(result.design) if result.design else None)
            if result.outcome == "completed":
                op.edges = n * (n - 1) // 2 - k * len(given)
        op.rejected = op.error is not None
        return op


class CliRunner:
    """Runs ``python -m stardeck.cli`` as a cold subprocess per operation.

    In the traced modes ``cli_child.py`` runs the same command under the
    tracer and leaves its summary in a file, which is folded into ``tracer``.
    """

    def __init__(self, root: Path, workdir: Path, env: dict, tracer) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.import_ms: list[float] = []  # of traced children, tracemalloc off
        self.paths: list[Path] = []

    def prepare(self, slots: list[dict]) -> None:
        docs = self.workdir / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, slot in enumerate(slots):
            text = json.dumps({
                "n": slot["n"], "k": slot["k"],
                "stars": [{"center": c, "leaves": leaves} for c, leaves in slot["stars"]],
            })
            if slot["truncated"]:
                text = text[: len(text) // 2]
            path = docs / f"{i}.json"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)

    def run(self, index: int, slot: dict, mode: str) -> Op:
        args = [slot["command"], str(self.paths[index])]
        if slot["command"] in ("complete", "oracle"):
            args += ["--budget", str(ORACLE_BUDGET)]
        summary = self.workdir / "child-summary.json"
        if mode == "plain":
            argv = [sys.executable, "-m", "stardeck.cli", *args]
        else:
            argv = [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                    mode, str(summary), *args]
        stdout_path = self.workdir / "child-stdout.txt"
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
            timed_out, status, usage = _wait(proc)
            seconds = time.perf_counter() - start
        if timed_out:
            return Op(seconds, error=f"no exit within {CHILD_TIMEOUT_S} s")
        code = proc.returncode
        op = Op(seconds, rss_kb=usage.ru_maxrss)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        op.error, op.exit_mismatch = checker.check_cli(slot, code, stdout)
        op.rejected = op.error is not None
        lines = stdout.splitlines()
        op.unknown = bool(lines) and lines[0].split(":")[0] == "unknown"
        if slot["command"] == "complete" and code == 0 and op.error is None:
            n, k = slot["n"], slot["k"]
            op.edges = n * (n - 1) // 2 - k * len(slot["stars"])
        if mode != "plain" and summary.exists():
            data = json.loads(summary.read_text(encoding="utf-8"))
            summary.unlink()
            op.covered_s = data["top_s"]
            self._fold(data)
        return op

    def _fold(self, data: dict) -> None:
        """Add a traced child's counters and spans to ``tracer``."""
        tracer = self.tracer
        merge_summaries(tracer.summary(), data["summary"])
        if not tracer.memory:
            self.import_ms.append(data["import_ms"])
        offset = len(tracer.names)
        spans = data["spans"]
        tracer.names += spans["name"]
        tracer.starts += spans["start"]
        tracer.ends += spans["end"]
        tracer.parents += [p + offset if p >= 0 else -1 for p in spans["parent"]]
        tracer.ops += [tracer.op] * len(spans["name"])


def _wait(proc: subprocess.Popen):
    """Reap the child with its resource usage; kill it after the timeout."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return not ready, status, usage
