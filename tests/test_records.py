"""The contract of stardeck's records: text, equality, hashing,
immutability, copying and constructor defaults; and what importing the
package loads."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stardeck import (
    BlockedEdgeCertificate,
    CompletionResult,
    Graph,
    Infeasible,
    OracleResult,
    PartialDesign,
    Precentral,
    Star,
)

STAR = Star(0, (1, 2))
DESIGN = PartialDesign(4, 2, (STAR,))

# (record, a record with one field changed, the fields in order, the repr)
RECORDS = [
    (
        STAR,
        Star(0, (1, 3)),
        (0, (1, 2)),
        "Star(center=0, leaves=(1, 2))",
    ),
    (
        Graph(3, [(1, 0)]),
        Graph(3, [(1, 2)]),
        (3, (0b010, 0b001, 0b000)),
        "Graph(n=3, rows=(2, 1, 0))",
    ),
    (
        DESIGN,
        PartialDesign(4, 2),
        (4, 2, (STAR,)),
        "PartialDesign(n=4, k=2, stars=(Star(center=0, leaves=(1, 2)),))",
    ),
    (
        Precentral(2, (1, 0), (1, 1)),
        Precentral(2, (0, 1), (1, 1)),
        (2, (1, 0), (1, 1)),
        "Precentral(k=2, values=(1, 0), degrees=(1, 1))",
    ),
    (
        Infeasible("cut", frozenset({1, 2})),
        Infeasible("odd-component", frozenset({1, 2})),
        ("cut", frozenset({1, 2})),
        "Infeasible(kind='cut', vertices=frozenset({1, 2}))",
    ),
    (
        OracleResult("found", (STAR,), 5),
        OracleResult("found", (STAR,), 6),
        ("found", (STAR,), 5),
        "OracleResult(status='found', stars=(Star(center=0, leaves=(1, 2)),), nodes=5)",
    ),
    (
        BlockedEdgeCertificate((0, 1), (2, 2)),
        BlockedEdgeCertificate((0, 1), (2, 1)),
        ((0, 1), (2, 2)),
        "BlockedEdgeCertificate(edge=(0, 1), degrees=(2, 2))",
    ),
    (
        CompletionResult("completed", DESIGN, trace=("validated", "merged")),
        CompletionResult("completed", DESIGN, trace=("validated",)),
        ("completed", DESIGN, None, None, ("validated", "merged")),
        "CompletionResult(outcome='completed',"
        " design=PartialDesign(n=4, k=2, stars=(Star(center=0, leaves=(1, 2)),)),"
        " reason=None, certificate=None, trace=('validated', 'merged'))",
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, other, values, text", RECORDS, ids=IDS)
def test_record_repr_equality_and_hash(record, other, values, text):
    assert repr(record) == text
    twin = copy.copy(record)
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert hash(record) == hash(twin) == hash(values)


@pytest.mark.parametrize("record, other, values, text", RECORDS, ids=IDS)
def test_record_equals_its_field_tuple(record, other, values, text):
    assert record == values and not record != values
    assert tuple(record) == values


def test_make_and_replace_normalize_stars():
    replaced = PartialDesign(5, 2)._replace(stars=[(0, (2, 1))])
    assert replaced.stars == (Star(0, (1, 2)),)
    assert [type(star) for star in replaced.stars] == [Star]
    made = Star._make((0, (3, 1, 1)))
    assert made == Star(0, (1, 3)) and made.leaves == (1, 3)


@pytest.mark.parametrize("record, other, values, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(record, other, values, text):
    name = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, other, values, text", RECORDS, ids=IDS)
@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-0", "copy", "deepcopy"])
def test_record_round_trips(record, other, values, text, clone):
    back = clone(record)
    assert type(back) is type(record)
    assert back == record and repr(back) == text and hash(back) == hash(record)


def test_record_constructor_defaults():
    assert PartialDesign(4, 2).stars == ()
    listed = PartialDesign(n=4, k=2, stars=[STAR])
    assert type(listed.stars) is tuple and listed == DESIGN
    assert CompletionResult("completed").trace == ()
    assert CompletionResult("completed") == CompletionResult(
        "completed", None, None, None, ()
    )
    assert Graph(3, [(0, 1), (1, 0)]) == Graph.from_edges(3, [(0, 1)])


def test_import_loads_no_dataclasses_inspect_or_fractions():
    """``import stardeck`` and ``import stardeck.cli`` keep the standard
    library's heavy modules out of a cold start."""
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import stardeck, stardeck.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert type(Precentral(2, (1, 0), (1, 1)).pstar(0)) is Fraction


@pytest.mark.parametrize("module", [
    "cli", "completion", "designs", "extremal", "oracle", "precentral", "realize",
])
def test_each_submodule_imports_first_without_a_cycle(module):
    """``has_completion`` imports ``decide`` from ``completion`` when called,
    since ``completion`` imports the search from ``oracle``; importing it at
    the top of ``oracle`` would be a cycle that no import order survives."""
    code = (
        f"import stardeck.{module}\n"
        "import stardeck\n"
        "print(stardeck.has_completion(stardeck.PartialDesign(6, 3), budget=10))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "yes\n"
