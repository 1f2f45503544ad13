"""Independent checks of the program's outputs.

Nothing here calls the program: a design is a list of ``[center, leaves]``
pairs and every property is recomputed from the stars.  Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json

from inputs import admissible, threshold


def _edges(star: list) -> list[tuple[int, int]]:
    center, leaves = star
    return [(min(center, x), max(center, x)) for x in leaves]


def star_problem(n: int, k: int, star: list) -> str | None:
    center, leaves = star
    if not 0 <= center < n:
        return f"center {center} out of range"
    if len(leaves) != k or len(set(leaves)) != k:
        return f"star at {center} has {len(set(leaves))} distinct leaves, not {k}"
    if center in leaves:
        return f"center {center} is its own leaf"
    if any(not 0 <= x < n for x in leaves):
        return f"star at {center} has a leaf out of range"
    return None


def covered_edges(n: int, k: int, stars: list) -> tuple[set, str | None]:
    """The edges the stars cover, or a reason they are not a partial design."""
    covered: set[tuple[int, int]] = set()
    for star in stars:
        problem = star_problem(n, k, star)
        if problem:
            return covered, problem
        for edge in _edges(star):
            if edge in covered:
                return covered, f"edge {edge} covered twice"
            covered.add(edge)
    return covered, None


def _key(star: list) -> tuple[int, frozenset]:
    return star[0], frozenset(star[1])


def check_completion(n: int, k: int, given: list, result: list) -> str | None:
    """The result holds every given star and its k-stars partition K_n."""
    covered, problem = covered_edges(n, k, result)
    if problem:
        return problem
    if len(covered) != n * (n - 1) // 2:
        return f"covers {len(covered)} of {n * (n - 1) // 2} edges"
    missing = {_key(s) for s in given} - {_key(s) for s in result}
    if missing:
        return f"{len(missing)} input star(s) missing from the completion"
    return None


def leftover_degrees(n: int, covered: set) -> list[int]:
    degree = [n - 1] * n
    for a, b in covered:
        degree[a] -= 1
        degree[b] -= 1
    return degree


def check_blocked(n: int, k: int, stars: list, edge, degrees) -> str | None:
    """The edge is uncovered and both ends have the stated leftover degree < k."""
    if len(edge) != 2 or len(degrees) != 2:
        return "malformed blocked-edge certificate"
    covered, problem = covered_edges(n, k, stars)
    if problem:
        return problem
    a, b = sorted(edge)
    if a == b or not 0 <= a < b < n or (a, b) in covered:
        return f"claimed blocked edge {edge} is not an uncovered edge"
    left = leftover_degrees(n, covered)
    if [left[edge[0]], left[edge[1]]] != list(degrees):
        return f"blocked edge {edge} has leftover degrees {left[edge[0]]},{left[edge[1]]}"
    if max(degrees) >= k:
        return f"edge {edge} is not blocked: degrees {list(degrees)}, k={k}"
    return None


def check_odd_component(n: int, k: int, stars: list, vertices) -> str | None:
    """The vertices form one leftover component with an odd edge count (k=2)."""
    if k != 2 or not vertices:
        return "odd-component certificate for k != 2 or without vertices"
    covered, problem = covered_edges(n, k, stars)
    if problem:
        return problem
    adjacency = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in covered:
                adjacency[a].append(b)
                adjacency[b].append(a)
    start = min(vertices)
    seen, todo = {start}, [start]
    while todo:
        for y in adjacency[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    if seen != set(vertices):
        return f"{sorted(vertices)} is not a leftover component"
    if sum(len(adjacency[v]) for v in seen) // 2 % 2 == 0:
        return f"component {sorted(vertices)} has an even edge count"
    return None


def check_outcome(n: int, k: int, given: list, within: bool, outcome: str,
                  reason, certificate, result: list | None) -> str | None:
    """A complete() result: completed and valid, or a recomputed certificate.

    ``within`` marks inputs at or below u(n, k) on admissible orders
    n >= 2k; those must complete.  An ``oracle`` refutation and ``unknown``
    are taken as reported for inputs over the threshold.
    """
    if outcome == "completed":
        if result is None:
            return "completed without a design"
        return check_completion(n, k, given, result)
    if within:
        return f"in-guarantee design ended {outcome} ({reason})"
    certificate = certificate or {}
    if outcome == "unknown":
        return None
    if outcome != "impossible":
        return f"unexpected outcome {outcome!r}"
    if reason == "blocked-edge":
        return check_blocked(n, k, given, certificate.get("blocked_edge", ()),
                             certificate.get("degrees", ()))
    if reason == "odd-component":
        return check_odd_component(n, k, given, certificate.get("odd_component", ()))
    if reason == "oracle":
        nodes = certificate.get("oracle_nodes")
        return None if isinstance(nodes, int) and nodes > 0 else "oracle refutation without nodes"
    if reason == "not-admissible" and not admissible(n, k):
        return None
    if reason == "order-too-small" and n < 2 * k:
        return None
    return f"unjustified impossibility {reason!r}"


def check_extremal(n: int, k: int, stars: list) -> str | None:
    """A generated extremal design: valid, with u(n, k) + 1 stars."""
    _, problem = covered_edges(n, k, stars)
    if problem:
        return problem
    if len(stars) != threshold(n, k) + 1:
        return f"{len(stars)} stars, expected u + 1 = {threshold(n, k) + 1}"
    return None


def check_answer(answer: str, within: bool) -> str | None:
    """A has_completion() answer: yes, no or unknown; never no within u."""
    if answer not in ("yes", "no", "unknown"):
        return f"answer {answer!r} is not yes/no/unknown"
    if within and answer == "no":
        return "in-guarantee design refuted"
    return None


def check_cli(slot: dict, code: int, stdout: str) -> tuple[str | None, bool]:
    """(reason, exit_mismatch) for one CLI run on a slot's document.

    Contract: 0 success, 1 certified or negative answer (unknown included),
    2 malformed input.  Stdout must parse for the subcommand.
    """
    n, k, stars = slot["n"], slot["k"], slot["stars"]
    lines = stdout.splitlines()
    command = slot["command"]
    if slot["truncated"]:
        return (None, False) if code == 2 and not lines else ("truncated document accepted", code != 2)
    if command == "complete" and not slot["blocked"]:
        if code != 0:
            return f"exit {code} on a completable design", True
        try:
            doc = json.loads(lines[0])
            result = [[s["center"], s["leaves"]] for s in doc["stars"]]
        except (IndexError, KeyError, TypeError, ValueError):
            return "completion output does not parse", False
        if (doc.get("n"), doc.get("k")) != (n, k):
            return "completion has the wrong order", False
        return check_completion(n, k, stars, result), False
    if command == "complete":
        if code != 1:
            return f"exit {code} on a blocked design", True
        try:
            head, detail = lines[0], lines[1].split()
            edge = [int(x) for x in detail[2].strip("{}").split(",")]
            degrees = [int(x) for x in detail[-1].split(",")]
        except (IndexError, ValueError):
            return "certificate output does not parse", False
        if head != "impossible: blocked-edge":
            return f"blocked design reported {head!r}", False
        return check_blocked(n, k, stars, edge, degrees), False
    if command == "verify":
        covered, _ = covered_edges(n, k, stars)
        total = n * (n - 1) // 2
        expected = [
            f"valid partial design: n={n} k={k} stars={len(stars)}",
            f"covered-edges: {len(covered)} leftover-edges: {total - len(covered)}",
            f"full-design: {'yes' if len(covered) == total else 'no'}",
        ]
        if code != 0:
            return f"exit {code} on a valid design", True
        return (None if lines == expected else "verify report differs"), False
    answer = lines[0] if lines else ""
    if code != (0 if answer == "yes" else 1):
        return f"oracle said {answer!r} with exit {code}", True
    if slot["blocked"] and answer == "yes":
        return "blocked design declared completable", False
    return check_answer(answer, not slot["blocked"]), False
