"""The package's public surface: what it exports, what it no longer ships,
and every name the benchmark in ``perfbench/`` reaches."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import stardeck

EXPORTS = [
    "BadEdge",
    "BadVertex",
    "BlockedEdgeCertificate",
    "CompletionDefect",
    "CompletionResult",
    "DEFAULT_BUDGET",
    "Graph",
    "Infeasible",
    "OracleResult",
    "PartialDesign",
    "Precentral",
    "Star",
    "canonical_dumps",
    "check_blocked_edge",
    "complete",
    "construct",
    "decompose_2stars",
    "decompose_exhaustive",
    "design_exists",
    "design_from_doc",
    "design_to_doc",
    "dumps_design",
    "find_bad",
    "gen_uncompletable",
    "has_completion",
    "is_admissible",
    "loads_design",
    "minimal",
    "pad_to_threshold",
    "random_design",
    "realize",
    "reduce_design",
    "small_order_precentral",
    "suitable",
    "threshold_u",
]

# (module, class or None, attribute) of names the package no longer ships;
# the reference checkers among them live in the tests' conftest
REMOVED = [
    ("stardeck", None, "default_budget"),
    ("stardeck", None, "delta_t"),
    ("stardeck", None, "subset_check"),
    ("stardeck", None, "verify_decomposition"),
    ("stardeck.completion", None, "_check_degree_facts"),
    ("stardeck.completion", None, "_construction"),
    ("stardeck.designs", None, "CentralFunction"),
    ("stardeck.designs", "Graph", "complete"),
    ("stardeck.designs", "Graph", "degree"),
    ("stardeck.designs", "Graph", "has_edge"),
    ("stardeck.designs", "Graph", "neighbors"),
    ("stardeck.designs", "Graph", "sorted_edges"),
    ("stardeck.designs", "PartialDesign", "central_function"),
    ("stardeck.designs", "PartialDesign", "reduction_vertex"),
    ("stardeck.designs", "Star", "sorted_leaves"),
    ("stardeck.oracle", None, "_BudgetExceeded"),
    ("stardeck.oracle", None, "decide"),
    ("stardeck.oracle", None, "default_budget"),
    ("stardeck.precentral", None, "delta_t"),
    ("stardeck.precentral", "Precentral", "pstar_sum"),
    ("stardeck.realize", None, "subset_check"),
    ("stardeck.realize", None, "verify_decomposition"),
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (module, dotted attribute) of each stardeck name that perfbench's ops.py,
# run.py and test_perfbench.py call, besides the tracer's targets
BENCHMARK_CALLS = [
    ("stardeck", "PartialDesign"),
    ("stardeck", "Star"),
    ("stardeck", "complete"),
    ("stardeck", "has_completion"),
    ("stardeck", "gen_uncompletable"),
    ("stardeck", "random_design"),
    ("stardeck", "check_blocked_edge"),
    ("stardeck", "decompose_2stars"),
    ("stardeck", "Graph.from_edges"),
    ("stardeck", "PartialDesign.validate"),
    ("stardeck.completion", "realize"),
    ("stardeck.cli", "complete"),
    ("stardeck.cli", "main"),
]


def _resolve(modname: str, dotted: str) -> object:
    value: object = importlib.import_module(modname)
    for part in dotted.split("."):
        value = getattr(value, part)
    return value


def test_exports_are_pinned():
    assert sorted(stardeck.__all__) == EXPORTS


def test_every_export_resolves():
    assert [name for name in stardeck.__all__ if not hasattr(stardeck, name)] == []


@pytest.mark.parametrize(
    "modname, cls, attr", REMOVED,
    ids=[f"{m}.{c + '.' if c else ''}{a}" for m, c, a in REMOVED],
)
def test_removed_name_is_gone(modname, cls, attr):
    owner = importlib.import_module(modname)
    if cls is not None:
        owner = getattr(owner, cls)
    assert not hasattr(owner, attr)


def test_complete_has_no_order_cutoff():
    assert "oracle_max_n" not in inspect.signature(stardeck.complete).parameters


def test_search_has_one_mode_and_a_keyword_only_budget():
    params = inspect.signature(stardeck.decompose_exhaustive).parameters
    assert "pinned" not in params
    assert params["budget"].kind is inspect.Parameter.KEYWORD_ONLY


def _tracer_targets() -> list[tuple[str, str, str | None, str]]:
    # loaded by path: the benchmark is not a package, and its tracer
    # imports only the standard library
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracer", PERFBENCH / "tracer.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    # the tracer wraps each target through getattr, so a missing one
    # would crash every traced benchmark run
    targets = _tracer_targets()
    assert targets
    for _, modname, cls, attr in targets:
        dotted = attr if cls is None else f"{cls}.{attr}"
        assert callable(_resolve(modname, dotted)), (modname, dotted)


@pytest.mark.parametrize("modname, dotted", BENCHMARK_CALLS)
def test_every_name_the_benchmark_calls_resolves(modname, dotted):
    assert callable(_resolve(modname, dotted))
