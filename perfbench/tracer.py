"""Spans around stardeck's public functions, recorded from outside the package.

``Tracer.install`` replaces each public function of a layer with a wrapper,
in its own module and under every name another stardeck module imports it
as; methods are wrapped on their class.  A wrapper records one span (name,
start, end, parent, operation id) in memory and adds its duration, minus
its children's, to the layer's self time.  With ``memory`` set it also
tracks, through tracemalloc, how far traced memory rose above its level at
entry while the span ran.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (span name, module, class or None, attribute)
TARGETS = [
    ("designs.validate", "stardeck.designs", "PartialDesign", "validate"),
    ("designs.leftover", "stardeck.designs", "PartialDesign", "leftover"),
    ("designs.parse", "stardeck.designs", None, "design_from_doc"),
    ("designs.parse", "stardeck.designs", None, "loads_design"),
    ("designs.dump", "stardeck.designs", None, "design_to_doc"),
    ("designs.dump", "stardeck.designs", None, "canonical_dumps"),
    ("designs.dump", "stardeck.designs", None, "dumps_design"),
    ("precentral.minimal", "stardeck.precentral", None, "minimal"),
    ("precentral.suitable", "stardeck.precentral", None, "suitable"),
    ("precentral.find_bad", "stardeck.precentral", None, "find_bad"),
    ("realize", "stardeck.realize", None, "realize"),
    ("completion.complete", "stardeck.completion", None, "complete"),
    ("completion.pad", "stardeck.completion", None, "pad_to_threshold"),
    ("completion.reduce", "stardeck.completion", None, "reduce_design"),
    ("completion.decompose_2stars", "stardeck.completion", None, "decompose_2stars"),
    ("completion.small_order", "stardeck.completion", None, "small_order_precentral"),
    ("extremal.check_blocked_edge", "stardeck.extremal", None, "check_blocked_edge"),
    ("extremal.gen_uncompletable", "stardeck.extremal", None, "gen_uncompletable"),
    ("oracle.search", "stardeck.oracle", None, "decompose_exhaustive"),
    ("oracle.has_completion", "stardeck.oracle", None, "has_completion"),
    ("cli.main", "stardeck.cli", None, "main"),
]
SPAN_NAMES = sorted({t[0] for t in TARGETS})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class _Frame:
    __slots__ = ("index", "child_time", "entry_mem", "peak_mem", "results")

    def __init__(self, index: int) -> None:
        self.index = index
        self.child_time = 0.0
        self.entry_mem = 0
        self.peak_mem = 0
        self.results: dict = {}


class Tracer:
    def __init__(self) -> None:
        # spans, column-wise: name, start, end, parent index (-1 at top), op id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op = -1
        self.memory = False
        self.top_time = 0.0
        self.stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                      for name in SPAN_NAMES}
        self.peaks = {name: 0 for name in SPAN_NAMES}
        self._stack: list[_Frame] = []
        self._plan: list[tuple[object, str, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target whose module is loaded."""
        if not self._plan:
            self._plan = self._find_targets()
        for owner, name, wrapper in self._plan:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _find_targets(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for each place a target is reachable."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "stardeck" or name.startswith("stardeck.")]
        plan = []
        for span, modname, cls, attr in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if cls is not None:
                owner = getattr(module, cls)
                plan.append((owner, attr, self._wrap(span, owner.__dict__[attr])))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                plan += [(mod, name, wrapper)
                         for name, value in vars(mod).items() if value is original]
        return plan

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span, fn, args, kwargs)
        return wrapper

    # --- recording ------------------------------------------------------------

    def _call(self, span: str, fn, args: tuple, kwargs: dict):
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.names)
        frame = _Frame(index)
        self.names.append(span)
        self.parents.append(parent.index if parent else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak_mem = max(parent.peak_mem, peak)
            tracemalloc.reset_peak()
            frame.entry_mem = frame.peak_mem = current
        stack.append(frame)
        start = time.perf_counter()
        self.starts.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.ends[index] = end
            duration = end - start
            stat = self.stats[span]
            stat["calls"] += 1
            stat["self_s"] += duration - frame.child_time
            stat["total_s"] += duration
            if parent is not None:
                parent.child_time += duration
            else:
                self.top_time += duration
            if self.memory:
                frame.peak_mem = max(frame.peak_mem, tracemalloc.get_traced_memory()[1])
                self.peaks[span] = max(self.peaks[span], frame.peak_mem - frame.entry_mem)
                if parent is not None:
                    parent.peak_mem = max(parent.peak_mem, frame.peak_mem)
                tracemalloc.reset_peak()
        self._count(span, frame, parent, args, kwargs, result)
        return result

    def _add(self, span: str, key: str, amount) -> None:
        self.stats[span][key] = self.stats[span].get(key, 0) + amount

    def _count(self, span, frame, parent, args, kwargs, result) -> None:
        """Work counters of the finished call, taken from its arguments and result."""
        if parent is not None:
            parent.results[span] = result
        if span == "designs.leftover":
            self._add(span, "edges", result.edge_count)
        elif span == "realize":
            self._add(span, "edges", _arg(args, kwargs, 0, "graph").edge_count)
            self._add(span, "infeasible", int(hasattr(result, "vertices")))
        elif span == "completion.pad":
            given = _arg(args, kwargs, 0, "design")
            self._add(span, "stars_padded", len(result.stars) - len(given.stars))
        elif span == "precentral.suitable":
            base = frame.results.get("precentral.minimal")
            if base is None:  # suitable no longer calls the wrapped minimal
                base = self._original("precentral.minimal")(
                    _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "k"))
            self._add(span, "repairs", int(tuple(result.values) != tuple(base.values)))
        elif span == "extremal.check_blocked_edge":
            self._add(span, "certified", int(result is not None))
        elif span == "oracle.search":
            self._add(span, "nodes", result.nodes)
            self._add(span, "budget_exceeded", int(result.status == "budget_exceeded"))

    def _original(self, span: str):
        for name, modname, cls, attr in TARGETS:
            if name == span:
                fn = getattr(sys.modules[modname], attr)
                return getattr(fn, "__wrapped__", fn)
        raise KeyError(span)

    # --- output ---------------------------------------------------------------

    def spans(self) -> dict:
        return {"name": self.names, "start": self.starts, "end": self.ends,
                "parent": self.parents, "op": self.ops}

    def summary(self) -> dict:
        return {"stats": self.stats, "peaks": self.peaks}


def merge_summaries(into: dict, other: dict) -> None:
    """Add counters and times of ``other`` into ``into``; peaks take the max."""
    for span, stat in other["stats"].items():
        target = into["stats"].setdefault(span, {})
        for key, value in stat.items():
            target[key] = target.get(key, 0) + value
    for span, peak in other["peaks"].items():
        into["peaks"][span] = max(into["peaks"].get(span, 0), peak)
