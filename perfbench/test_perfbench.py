"""Tests of the benchmark harness.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
import stardeck  # noqa: E402
from speed import NOMINAL_S, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def stars_of(design) -> list:
    return [[s.center, sorted(s.leaves)] for s in design.stars]


@pytest.fixture(scope="module")
def completed():
    design = stardeck.random_design(15, 3, 5, random.Random(3))
    result = stardeck.complete(design)
    assert result.outcome == "completed"
    return stars_of(design), stars_of(result.design)


def test_checker_accepts_a_real_completion(completed):
    given, full = completed
    assert checker.check_completion(15, 3, given, full) is None


def test_checker_rejects_a_dropped_star(completed):
    given, full = completed
    assert "covers" in checker.check_completion(15, 3, given, full[1:] if full[0] in given
                                                else [s for s in full if s != given[0]])
    # swap leaves between an input star and another star of its center: the
    # edges still partition K_n, but the input star is gone
    star = next(s for s in given if sum(t[0] == s[0] for t in full) > 1)
    other = next(t for t in full if t[0] == star[0] and t != star)
    swapped = [t for t in full if t not in (star, other)] + [
        [star[0], sorted(star[1][:-1] + other[1][-1:])],
        [star[0], sorted(other[1][:-1] + star[1][-1:])],
    ]
    assert "missing" in checker.check_completion(15, 3, given, swapped)


def test_checker_rejects_a_duplicated_edge(completed):
    given, full = completed
    center, leaves = full[-1]
    taken = next(x for t in full[:-1] if t[0] == center for x in t[1])
    moved = full[:-1] + [[center, sorted(leaves[1:] + [taken])]]
    assert "twice" in checker.check_completion(15, 3, given, moved)
    assert "twice" in checker.check_completion(15, 3, given, full + [full[-1]])


def test_checker_checks_blocked_edge_certificates():
    design = stardeck.gen_uncompletable(12, 3)
    cert = stardeck.check_blocked_edge(design)
    stars = stars_of(design)
    assert checker.check_blocked(12, 3, stars, cert.edge, cert.degrees) is None
    assert checker.check_blocked(12, 3, stars, cert.edge, (1, 1)) is not None
    covered_edge = (stars[0][0], stars[0][1][0])
    assert checker.check_blocked(12, 3, stars, covered_edge, cert.degrees) is not None
    # an uncovered edge whose ends still have k free edges is not blocked
    assert checker.check_blocked(12, 3, stars, (5, 9), cert.degrees) is not None


def test_check_outcome_accepts_real_over_threshold_answers():
    rng = random.Random(5)
    outcomes = set()
    for n, k in [(5, 2), (8, 2), (9, 3), (12, 3), (10, 5)]:
        for _ in range(10):
            doc = inputs._over_design(rng, n, k, 3)
            design = stardeck.PartialDesign(n, k, tuple(
                stardeck.Star(c, frozenset(leaves)) for c, leaves in doc["stars"]))
            result = stardeck.complete(design, oracle_budget=1000)
            outcomes.add(result.outcome)
            assert checker.check_outcome(
                n, k, doc["stars"], False, result.outcome, result.reason,
                result.certificate, stars_of(result.design) if result.design else None) is None
    assert "completed" in outcomes
    # an in-guarantee design must complete
    assert checker.check_outcome(9, 3, [], True, "unknown", "x", None, None) is not None


def test_checker_checks_odd_component_certificates():
    # K_8 minus two 3-edge paths, cut into 2-stars: the paths are odd
    # leftover components, and no leftover edge is blocked
    paths = {(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)}
    rest = stardeck.Graph.from_edges(8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                                         if (a, b) not in paths])
    design = stardeck.PartialDesign(8, 2, tuple(stardeck.decompose_2stars(rest)))
    result = stardeck.complete(design)
    assert (result.outcome, result.reason) == ("impossible", "odd-component")
    stars, vertices = stars_of(design), result.certificate["odd_component"]
    assert checker.check_odd_component(8, 2, stars, vertices) is None
    assert checker.check_odd_component(8, 2, stars, vertices[:-1]) is not None
    assert checker.check_odd_component(8, 2, stars, [0, 1, 2, 3, 4, 5, 6, 7]) is not None


def test_check_cli_flags_exit_code_mismatches():
    slot = {"kind": "cli", "command": "oracle", "blocked": False, "truncated": False,
            "n": 9, "k": 3, "stars": []}
    assert checker.check_cli(slot, 0, "yes\n") == (None, False)
    assert checker.check_cli(slot, 1, "yes\n")[1] is True
    assert checker.check_cli(slot, 1, "no\n")[0] is not None
    verify = dict(slot, command="verify")
    assert checker.check_cli(verify, 2, "")[1] is True
    truncated = dict(verify, truncated=True)
    assert checker.check_cli(truncated, 2, "") == (None, False)
    assert checker.check_cli(truncated, 0, "valid")[1] is True


def test_inputs_come_from_the_seed_only():
    for workload in inputs.WORKLOADS:
        first = inputs.digest(inputs.generate(workload, 7, tiny=True))
        assert first == inputs.digest(inputs.generate(workload, 7, tiny=True))
        assert first != inputs.digest(inputs.generate(workload, 8, tiny=True))


def test_inputs_are_valid_and_on_the_right_side_of_the_threshold():
    for workload in inputs.WORKLOADS:
        for slot in inputs.generate(workload, 1, tiny=True):
            if "stars" not in slot:
                continue
            n, k, stars = slot["n"], slot["k"], slot["stars"]
            assert checker.covered_edges(n, k, stars)[1] is None
            within = len(stars) <= inputs.threshold(n, k)
            if slot["kind"] == "complete":
                assert within == slot["within"]
            if slot.get("blocked"):
                assert inputs.has_blocked_edge(n, k, stars)
            if slot["kind"] == "has_completion":
                assert not within and not inputs.has_blocked_edge(n, k, stars)


def test_tracer_wraps_and_restores_every_import_site():
    import stardeck.cli
    import stardeck.completion

    before = (stardeck.complete, stardeck.completion.realize, stardeck.cli.complete,
              stardeck.PartialDesign.validate)
    tracer = Tracer()
    tracer.install()
    try:
        assert stardeck.complete is not before[0]
        assert stardeck.completion.realize is not before[1]
        assert stardeck.cli.complete is not before[2]
        design = stardeck.random_design(21, 3, 5, random.Random(1))
        stardeck.complete(design)
    finally:
        tracer.uninstall()
    assert (stardeck.complete, stardeck.completion.realize, stardeck.cli.complete,
            stardeck.PartialDesign.validate) == before
    stats = tracer.stats
    assert stats["completion.complete"]["calls"] >= 1
    assert stats["designs.validate"]["calls"] >= 2
    assert stats["realize"]["edges"] > 0
    self_total = sum(s["self_s"] for s in stats.values())
    assert self_total == pytest.approx(tracer.top_time, rel=1e-6)
    assert all(p == -1 or p < i for i, p in enumerate(tracer.parents))


def test_speed_samples_in_proportion_to_operation_time():
    speed = Speed()
    speed.after(0.1)
    assert len(speed.samples) == 1
    speed.after(0.6)
    assert len(speed.samples) == 3
    assert speed.ops == [(0.1, 1), (0.6, 1)]


def test_speed_scales_each_operation_by_the_samples_around_it():
    speed = Speed()
    speed.samples = [NOMINAL_S / 2] * 6 + [NOMINAL_S * 2] * 6
    speed.ops = [(1.0, 3), (1.0, 9)]
    assert speed.scaled() == pytest.approx([2.0, 0.5])
    assert speed.factor() == pytest.approx(NOMINAL_S / (NOMINAL_S * 1.25))


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_every_workload_runs_at_tiny_size(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("small-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
