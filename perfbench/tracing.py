"""Spans around the benchmark's calls into each layer, and a module profiler.

Both are used only by traced runs (``--trace 1``); untimed bookkeeping
never runs inside the end-to-end measurements.

* :class:`Tracer` records one span per call the benchmark makes into a
  layer: name, start, end, parent and the cell or request id.  Spans are
  kept in memory and written out as JSON lines when the run ends.  The
  parent link follows :mod:`contextvars`, so concurrent asyncio tasks
  each keep their own span stack.
* :class:`ModuleProfiler` installs a :func:`sys.setprofile` hook that
  charges self time and counts Python calls per layer, where a layer is
  a ``repro`` module group.  C builtins push no frame, so their time is
  charged to the calling module.  The hook's own cost is charged to no
  layer: it is the ``unattributed`` remainder that makes the self times
  add up to the traced wall time.
"""

from __future__ import annotations

import contextvars
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: The simulator layers reported one by one, as ``repro`` module prefixes.
LAYERS = (
    "core.cpu", "core.memsys", "core.functional", "cache", "memory",
    "prefetch.matcher", "prefetch.content", "prefetch.stride", "tlb",
    "interconnect", "trace",
)

#: Every group the profiler charges to; with ``unattributed`` these
#: partition the traced wall time.
GROUPS = LAYERS + ("service", "workloads", "repro.other", "perfbench",
                   "other")


def classify(module: str) -> str:
    """The profiler group of a module name."""
    if module.startswith("repro."):
        rest = module[len("repro."):]
        for layer in LAYERS:
            if rest == layer or rest.startswith(layer + "."):
                return layer
        top = rest.split(".", 1)[0]
        if top in ("service", "workloads"):
            return top
        return "repro.other"
    if module in ("__main__", "perfbench") or module.startswith("perfbench."):
        return "perfbench"
    return "other"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ident: str | None


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)

    @contextmanager
    def span(self, name: str, ident=None):
        """Record one span; *ident* defaults to the parent's id."""
        if not self.enabled:
            yield
            return
        parent = self._current.get()
        if ident is None and parent is not None:
            ident = self.spans[parent].ident
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent,
                      None if ident is None else str(ident))
        self.spans.append(record)
        token = self._current.set(index)
        try:
            yield
        finally:
            self._current.reset(token)
            record.end = time.perf_counter()

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, record in enumerate(self.spans):
                row = asdict(record)
                row["index"] = index
                handle.write(json.dumps(row) + "\n")


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (concurrent tasks under one parent);
    the covered part is the union of their intervals, clipped to the
    parent's.
    """
    children: dict = {}
    for index, record in enumerate(spans):
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    out = []
    for index, record in enumerate(spans):
        covered = union_length(
            (max(child.start, record.start), min(child.end, record.end))
            for child in children.get(index, ())
        )
        out.append((record.end - record.start) - covered)
    return out


def summarize(spans) -> dict:
    """``{name: {count, total_s, self_s}}`` over all spans."""
    out: dict = {}
    for record, own in zip(spans, self_times(spans)):
        row = out.setdefault(record.name,
                             {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += record.end - record.start
        row["self_s"] += own
    return out


class ModuleProfiler:
    """Per-group self time and Python call counts over ``with`` blocks.

    Profiles the calling thread only.  Re-entering accumulates, so one
    profiler can cover several separate regions.
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.calls = dict.fromkeys(GROUPS, 0)
        self.wall_s = 0.0
        self._groups: dict = {}
        self._stack: list = []
        self._last = 0.0
        self._entered = 0.0

    def __enter__(self) -> "ModuleProfiler":
        self._stack = ["perfbench"]
        self._entered = self._last = time.perf_counter()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)
        self.wall_s += time.perf_counter() - self._entered

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - sum(self.self_s.values())

    def _hook(self, frame, event, arg) -> None:
        now = time.perf_counter()
        stack = self._stack
        self.self_s[stack[-1]] += now - self._last
        if event == "call":
            code = frame.f_code
            group = self._groups.get(code)
            if group is None:
                group = self._groups[code] = classify(
                    frame.f_globals.get("__name__") or ""
                )
            stack.append(group)
            self.calls[group] += 1
        elif event == "return" and len(stack) > 1:
            stack.pop()
        self._last = time.perf_counter()
