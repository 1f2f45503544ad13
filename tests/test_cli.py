"""Tests for the command-line interface: golden outputs and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from stardeck import (
    Graph,
    PartialDesign,
    Star,
    complete,
    decompose_exhaustive,
    design_from_doc,
    dumps_design,
    gen_uncompletable,
    has_completion,
)
from stardeck.cli import main


@pytest.fixture()
def one_star_file(tmp_path):
    d = PartialDesign(6, 3, (Star(0, frozenset({1, 2, 3})),))
    path = tmp_path / "one.json"
    path.write_text(dumps_design(d))
    return str(path)


@pytest.fixture()
def search_only_file(tmp_path):
    # construct() fails on this leftover, yet the search finds a decomposition
    d = PartialDesign(7, 3, (
        Star(5, frozenset({0, 2, 4})),
        Star(0, frozenset({1, 2, 3})),
        Star(1, frozenset({3, 4, 6})),
    ))
    path = tmp_path / "search_only.json"
    path.write_text(dumps_design(d))
    return str(path)


@pytest.fixture()
def blocked_file(tmp_path):
    path = tmp_path / "blocked.json"
    path.write_text(dumps_design(gen_uncompletable(6, 3)))
    return str(path)


# ------------------------------------------------------------------- threshold


def test_threshold_reports_admissible_order(capsys):
    assert main(["threshold", "9", "3"]) == 0
    assert capsys.readouterr().out == (
        "n=9 k=3\nadmissible: yes\ndesign-exists: yes\nu: 3\n"
    )


def test_threshold_reports_inadmissible_order(capsys):
    assert main(["threshold", "8", "3"]) == 0
    assert capsys.readouterr().out == (
        "n=8 k=3\nadmissible: no\ndesign-exists: no\nu: 3\n"
    )


def test_threshold_k2(capsys):
    assert main(["threshold", "4", "2"]) == 0
    assert "u: 1" in capsys.readouterr().out


def test_threshold_rejects_malformed_arguments(capsys):
    assert main(["threshold", "x", "3"]) == 2
    assert main(["threshold", "9"]) == 2
    capsys.readouterr()


# -------------------------------------------------------------------- complete


def test_complete_success_prints_design(capsys, one_star_file):
    assert main(["complete", one_star_file]) == 0
    out, err = capsys.readouterr()
    full = design_from_doc(json.loads(out))
    assert full.validate() == []
    assert full.leftover().edge_count == 0
    assert Star(0, frozenset({1, 2, 3})) in full.stars
    assert err.startswith("completed: ")


def test_complete_success_json_mode(capsys, one_star_file):
    assert main(["complete", one_star_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "completed"
    assert doc["trace"][0] == "validated"
    assert design_from_doc(doc["design"]).leftover().edge_count == 0


def test_complete_blocked_design(capsys, blocked_file):
    assert main(["complete", blocked_file]) == 1
    out = capsys.readouterr().out
    assert out == (
        "impossible: blocked-edge\n"
        "blocked edge {0,1} with leftover degrees 2,2\n"
    )


def test_complete_blocked_design_json(capsys, blocked_file):
    assert main(["complete", blocked_file, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"] == "impossible"
    assert doc["reason"] == "blocked-edge"
    assert doc["certificate"] == {"blocked_edge": [0, 1], "degrees": [2, 2]}


def test_complete_invalid_design_file(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"n":6,"k":3,"stars":[{"center":0,"leaves":[1,2]}]}')
    assert main(["complete", str(path)]) == 2
    err = capsys.readouterr().err
    assert "star 0: has 2 leaves, expected 3" in err


def test_complete_unparseable_file(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    assert main(["complete", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_complete_missing_file(capsys, tmp_path):
    assert main(["complete", str(tmp_path / "nosuch.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------- verify


def test_verify_partial_design(capsys, one_star_file):
    assert main(["verify", one_star_file]) == 0
    assert capsys.readouterr().out == (
        "valid partial design: n=6 k=3 stars=1\n"
        "covered-edges: 3 leftover-edges: 12\n"
        "full-design: no\n"
    )


def test_verify_full_design(capsys, tmp_path):
    full = complete(PartialDesign(6, 3)).design
    path = tmp_path / "full.json"
    path.write_text(dumps_design(full))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "full-design: yes" in out
    assert "leftover-edges: 0" in out


def test_verify_invalid_design(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"n":6,"k":3,"stars":[{"center":0,"leaves":[1,2]}]}')
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: 1 violation(s)\n")
    assert "star 0: has 2 leaves, expected 3" in out


# ------------------------------------------------------------- gen subcommands


def test_gen_uncompletable_golden(capsys):
    assert main(["gen-uncompletable", "6", "3"]) == 0
    assert capsys.readouterr().out == (
        '{"certificate":{"blocked_edge":[0,1],"degrees":[2,2]},'
        '"k":3,"n":6,"stars":[{"center":0,"leaves":[2,3,4]},'
        '{"center":1,"leaves":[2,3,4]}]}\n'
    )


def test_gen_uncompletable_output_feeds_complete(capsys, tmp_path):
    assert main(["gen-uncompletable", "9", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    assert main(["complete", str(path)]) == 1
    capsys.readouterr()


def test_gen_uncompletable_rejects_inadmissible(capsys):
    assert main(["gen-uncompletable", "8", "3"]) == 2
    assert "not admissible" in capsys.readouterr().err


def test_gen_random_is_deterministic(capsys):
    assert main(["gen-random", "9", "3", "2", "42"]) == 0
    first = capsys.readouterr().out
    assert first == (
        '{"k":3,"n":9,"stars":[{"center":1,"leaves":[0,3,6]},'
        '{"center":3,"leaves":[0,2,8]}]}\n'
    )
    assert main(["gen-random", "9", "3", "2", "42"]) == 0
    assert capsys.readouterr().out == first


def test_gen_random_reports_stuck_generation(capsys):
    assert main(["gen-random", "4", "3", "3", "0"]) == 1
    assert "cannot place star" in capsys.readouterr().err


def test_gen_random_rejects_huge_order_before_any_work():
    # in a child capped at 1 GB, so that building n vertex sets fails the
    # test with a MemoryError instead of exhausting the machine
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = (
        "import random, stardeck\n"
        "try:\n"
        "    stardeck.random_design(10**21, 3, 1, random.Random(1))\n"
        "except BaseException as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert _child(["-c", code], preexec_fn=cap).stdout == "OverflowError\n"
    out = _child(["-m", "stardeck.cli", "gen-random", str(10**21), "3", "1", "1"],
                 preexec_fn=cap)
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "out of memory: the design is too large for this machine\n"
    )


# ---------------------------------------------------------------------- oracle


def test_oracle_yes(capsys, one_star_file):
    assert main(["oracle", one_star_file]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_oracle_no(capsys, blocked_file):
    assert main(["oracle", blocked_file]) == 1
    assert capsys.readouterr().out == "no\n"


def test_oracle_unknown_on_tiny_budget(capsys, search_only_file):
    assert main(["oracle", search_only_file, "--budget", "1"]) == 1
    assert capsys.readouterr().out == "unknown\n"


# ------------------------------------------------------------------ precentral


def test_precentral_golden(capsys, one_star_file):
    assert main(["precentral", one_star_file]) == 0
    assert capsys.readouterr().out == (
        "n=6 k=3 leftover-edges=12\n"
        "minimal: 0 1 1 0 1 1\n"
        "minimal-pstar: -1/3 1/3 1/3 -2/3 1/6 1/6\n"
        "flaw: none\n"
    )


def test_precentral_shows_repair_and_residual_flaw(capsys, blocked_file):
    # the blocked leftover is outside the repair guarantee: the single
    # repair is shown along with the advisory residual flaw
    assert main(["precentral", blocked_file]) == 0
    assert capsys.readouterr().out == (
        "n=6 k=3 leftover-edges=9\n"
        "minimal: 0 0 1 1 0 1\n"
        "minimal-pstar: -1/3 -1/3 1/2 1/2 -1/2 1/6\n"
        "flaw: edge 0-1\n"
        "suitable: 0 1 0 1 0 1\n"
        "suitable-pstar: -1/3 2/3 -1/2 1/2 -1/2 1/6\n"
        "residual-flaw: vertex 1\n"
    )


# ---------------------------------------------------------------------- budget


def test_budget_variable_is_ignored(capsys, monkeypatch, search_only_file):
    # the search runs on search_only_file, so a budget read from the
    # environment would change its answer
    runs = (
        ["threshold", "9", "3"],
        ["complete", search_only_file],
        ["complete", search_only_file, "--json"],
        ["oracle", search_only_file],
        ["verify", search_only_file],
        ["precentral", search_only_file],
        ["gen-uncompletable", "6", "3"],
        ["gen-random", "9", "3", "2", "1"],
    )
    monkeypatch.delenv("STARDECK_ORACLE_BUDGET", raising=False)
    expected = []
    for argv in runs:
        code = main(argv)
        expected.append((code, capsys.readouterr()))
    assert expected[3] == (0, ("yes\n", ""))
    for value in ("x", "0", "1"):
        monkeypatch.setenv("STARDECK_ORACLE_BUDGET", value)
        for argv, want in zip(runs, expected):
            assert (main(argv), capsys.readouterr()) == want, (value, argv)
        assert decompose_exhaustive(Graph(6, combinations(range(6), 2)), 3).status == "found"


def test_budget_flag_below_one_is_input_error(capsys, one_star_file):
    for command in ("complete", "oracle"):
        for budget in ("0", "-5"):
            assert main([command, one_star_file, "--budget", budget]) == 2
            assert capsys.readouterr() == (
                "", f"--budget must be positive, got {budget}\n"
            )


# ------------------------------------------------------------------ file input

_BAD_INPUTS = {
    "missing": None,
    "truncated": b'{"n":6,"k":3,"stars":[',
    "non-utf8": b'{"n":6,"k":3,"stars":[]}\xff\xfe',
    "non-object": b"[]",
    "deeply-nested": b"[" * 200_000,
}


@pytest.mark.parametrize("command", ["complete", "verify", "oracle", "precentral"])
@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_file_is_one_line_input_error(capsys, tmp_path, command, case):
    path = tmp_path / "input.json"
    if _BAD_INPUTS[case] is not None:
        path.write_bytes(_BAD_INPUTS[case])
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    if case == "non-utf8":
        assert err.startswith(f"cannot read {path}: ")


_INVALID_ORDERS = {
    '{"n":5,"k":0,"stars":[]}': "k must be >= 2, got 0",
    '{"n":5,"k":1,"stars":[]}': "k must be >= 2, got 1",
    '{"n":0,"k":3,"stars":[]}': "n must be >= 1, got 0",
}


@pytest.mark.parametrize("command", ["complete", "oracle"])
@pytest.mark.parametrize("text", list(_INVALID_ORDERS))
def test_invalid_order_or_star_size_is_one_line_input_error(capsys, tmp_path,
                                                            command, text):
    # validation comes before any arithmetic on n or k
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    message = "invalid design: " + _INVALID_ORDERS[text]
    assert capsys.readouterr() == ("", message + "\n")
    with pytest.raises(ValueError) as info:
        has_completion(design_from_doc(json.loads(text)))
    assert str(info.value) == message


@pytest.mark.parametrize("command, step", [
    ("complete", "complete"), ("oracle", "has_completion"), ("precentral", "minimal"),
])
def test_out_of_memory_is_one_line_input_error(
    capsys, monkeypatch, one_star_file, command, step
):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"stardeck.cli.{step}", exhausted)
    assert main([command, one_star_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "out of memory: the design is too large for this machine\n"


def test_huge_order_is_one_line_input_error(capsys, tmp_path):
    # an order past the C index range cannot even be counted out in range()
    n = 10**21
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "k": 3, "stars": []}))
    for argv in (
        ["complete", str(path)],
        ["oracle", str(path)],
        ["precentral", str(path)],
        ["gen-uncompletable", str(n), "3"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == (
            "", "out of memory: the design is too large for this machine\n"
        ), argv


@pytest.mark.parametrize("command", ["complete", "oracle"])
def test_order_past_the_recursion_limit_is_never_a_negative_answer(tmp_path, command):
    # inside the guarantee, so exit 1 ("certified negative") would be wrong;
    # exit 2 until realize() stops recursing, and a full design after
    n, k = 1201, 3
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, "k": k, "stars": []}))
    out = _child(["-m", "stardeck.cli", command, str(path)])
    assert out.returncode in (0, 2)
    assert "Traceback" not in out.stderr
    if out.returncode == 2:
        assert out.stdout == "" and out.stderr.count("\n") == 1
    elif command == "complete":
        assert len(design_from_doc(json.loads(out.stdout)).stars) == n * (n - 1) // 2 // k
    else:
        assert out.stdout == "yes\n"


# A child's peak RSS starts at its parent's RSS at the fork, so the command
# runs under a small launcher, which reaps it with os.wait4 and prints its
# exit code and peak RSS in KB; the test process may be large by then.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'w') as out:\n"
    "    proc = subprocess.Popen(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL)\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no os.wait4")
def test_large_order_refutation_runs_in_small_memory(tmp_path):
    # the blocked edge is read off the stars; building this design's
    # O(n^2) leftover takes about 290 MB
    generated, printed = tmp_path / "blocked.json", tmp_path / "out.txt"
    for argv, path, want in (
        (["gen-uncompletable", "6001", "3"], generated, 0),
        (["complete", str(generated)], printed, 1),
    ):
        out = _child(["-c", _PEAK_RSS, str(path), sys.executable, "-m", "stardeck.cli", *argv])
        code, peak_kb = map(int, out.stdout.split())
        assert code == want and peak_kb < 100 * 1024, (argv, code, peak_kb)
    assert printed.read_text() == (
        "impossible: blocked-edge\n"
        "blocked edge {0,1} with leftover degrees 2,2\n"
    )


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no os.wait4")
@pytest.mark.parametrize("argv, sha256", [
    (["gen-random", "3001", "3", "10", "1"],
     "c9f861e7ae84dbf816097e69dbbee3d5fc4c52a3de7f86b14cfc271e8bc90c8d"),
    (["precentral", "EMPTY"],
     "d3662c0d780e0d984c281383a2e9f3509041ed2c1caa261a15475855bb97cfd7"),
], ids=["gen-random", "precentral"])
def test_large_order_leftover_commands_run_in_small_memory(tmp_path, argv, sha256):
    # the leftover and the generator keep one n-bit row per vertex, 1.1 MB
    # at n = 3001; the digests pin the draws and the report at that order
    empty, printed = tmp_path / "empty.json", tmp_path / "out.txt"
    empty.write_text(dumps_design(PartialDesign(3001, 3)))
    argv = [str(empty) if arg == "EMPTY" else arg for arg in argv]
    out = _child(["-c", _PEAK_RSS, str(printed), sys.executable, "-m", "stardeck.cli", *argv])
    code, peak_kb = map(int, out.stdout.split())
    assert code == 0 and peak_kb < 50 * 1024, (argv, code, peak_kb)
    assert hashlib.sha256(printed.read_bytes()).hexdigest() == sha256


# ---------------------------------------------------------------------- output


def _child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python args`` on this tree's package, with a 20 s timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, timeout=20, text=True,
                          **kwargs)


def _assert_write_error(out: subprocess.CompletedProcess, message: str) -> None:
    assert out.returncode == 2
    assert out.stderr == f"cannot write output: {message}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["threshold", "9", "3"], ["complete", "FILE"], ["complete", "FILE", "--json"],
])
def test_unwritable_output_is_one_line_error(one_star_file, argv):
    argv = [one_star_file if a == "FILE" else a for a in argv]
    with open("/dev/full", "w") as full:
        out = _child(["-m", "stardeck.cli", *argv], stdout=full)
    _assert_write_error(out, "[Errno 28] No space left on device")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unwritable_output_and_stderr_exit_2():
    # the error line is lost too, but the exit code still says "output"
    with open("/dev/full", "w") as full:
        out = _child(["-m", "stardeck.cli", "threshold", "9", "3"],
                     stdout=full, stderr=full)
    assert out.returncode == 2


def test_closed_stderr_keeps_exit_code():
    # the input error cannot be reported, and it never goes to stdout
    out = _child(["-m", "stardeck.cli", "threshold", "1", "1"],
                 stderr=None, preexec_fn=lambda: os.close(2))
    assert out.returncode == 2
    assert out.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["complete", "--help"]])
def test_unwritable_help_is_one_line_error(argv):
    with open("/dev/full", "w") as full:
        out = _child(["-m", "stardeck.cli", *argv], stdout=full)
    _assert_write_error(out, "[Errno 28] No space left on device")


def test_closed_stdout_is_one_line_error():
    out = _child(["-m", "stardeck.cli", "threshold", "9", "3"],
                 stdout=None, preexec_fn=lambda: os.close(1))
    _assert_write_error(out, "standard output is closed")


@pytest.mark.parametrize("argv", [
    ["threshold", "9", "3"], ["complete", "FILE"], ["gen-random", "60", "3", "30", "1"],
])
def test_pipe_closed_by_reader_is_one_line_error(one_star_file, argv):
    argv = [one_star_file if a == "FILE" else a for a in argv]
    read, write = os.pipe()
    os.close(read)  # closed before the child starts, so every write fails
    try:
        out = _child(["-m", "stardeck.cli", *argv], stdout=write)
    finally:
        os.close(write)
    _assert_write_error(out, "[Errno 32] Broken pipe")


# ------------------------------------------------------------------- top level


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
