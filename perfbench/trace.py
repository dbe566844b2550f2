"""In-memory span recorder for the traced benchmark run.

The harness opens a span around every call it makes into a layer of the
program (one root span per cell, CLI invocation or job; children for
build / first step / each segment / submit / wait / result). Spans stay
in memory and are written out once, when the workload ends, as a
Chrome-trace file plus a self-time table (a span's duration minus the
part of it its children cover).

Times are ``time.perf_counter()`` readings. On Linux that clock is
``CLOCK_MONOTONIC``, which every process of the machine shares, so spans
recorded by a child process (:mod:`perfbench.cell`) can be grafted under
the parent's span without translation.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "self_times", "chrome_trace"]


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the span that caused it."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float
    workload: str = ""
    unit: str = ""                  # cell / CLI invocation / job id
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one branch.

    Nesting is tracked per thread, so the two client threads of the
    ``served`` workload each build their own span tree.
    """

    def __init__(self, enabled: bool = True, workload: str = ""):
        self.enabled = bool(enabled)
        self.workload = workload
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    @contextmanager
    def span(self, name: str, unit: str = "", **attrs):
        """Time the enclosed block as a child of the innermost open span.

        Yields the span id (``None`` when disabled) so callers can graft
        externally recorded spans under it with :meth:`add`.
        """
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent, parent_unit = stack[-1] if stack else (None, "")
        unit = unit or parent_unit
        span_id = self._new_id()
        stack.append((span_id, unit))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, name, start, end,
                                       self.workload, unit, dict(attrs)))

    def add(self, name: str, start: float, end: float,
            parent: int | None, unit: str = "", **attrs) -> int | None:
        """Record a span timed elsewhere (a child process, a job record)."""
        if not self.enabled:
            return None
        span_id = self._new_id()
        with self._lock:
            self.spans.append(Span(span_id, parent, name, start, end,
                                   self.workload, unit, dict(attrs)))
        return span_id

    def graft(self, records: list[dict], parent: int | None,
              unit: str = "") -> None:
        """Attach a child process's span list under ``parent``.

        ``records`` is what :func:`export` produced in the child: ids are
        local to that process and are remapped here; spans whose parent
        is ``None`` there become children of ``parent`` here.
        """
        if not self.enabled:
            return
        remap: dict[int, int] = {}
        for rec in sorted(records, key=lambda r: r["id"]):
            local_parent = rec["parent"]
            new_parent = parent if local_parent is None else remap[local_parent]
            remap[rec["id"]] = self.add(rec["name"], rec["start"], rec["end"],
                                        new_parent, unit or rec.get("unit", ""),
                                        **rec.get("attrs", {}))

    def export(self) -> list[dict]:
        """Plain-dict form of every span (what a child prints for grafting)."""
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "unit": s.unit,
                 "attrs": s.attrs} for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []))
            for s in spans}


def self_time_table(spans: list[Span]) -> list[dict]:
    """Per span name: count, total duration and total self time, largest first."""
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"name": s.name, "count": 0,
                                       "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += selfs[s.id]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event document (``ph == "X"``, microseconds).

    One ``tid`` row per root span, so a cell, CLI invocation or job reads
    as one lane in Perfetto with its children nested beneath it.
    """
    by_id = {s.id: s for s in spans}

    def root_of(span: Span) -> int:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span.id

    epoch = min((s.start for s in spans), default=0.0)
    events = []
    for s in sorted(spans, key=lambda s: s.start):
        events.append({
            "name": s.name, "ph": "X", "pid": 1, "tid": root_of(s),
            "ts": (s.start - epoch) * 1e6, "dur": s.duration * 1e6,
            "args": {"id": s.id, "parent": s.parent, "workload": s.workload,
                     "unit": s.unit, **s.attrs},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(spans: list[Span], path: Path) -> None:
    """Write the Chrome trace and, beside it, the self-time table."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans)) + "\n", encoding="utf-8")
    table = path.with_name(path.stem + "-selftime.json")
    table.write_text(json.dumps(self_time_table(spans), indent=1) + "\n",
                     encoding="utf-8")
