"""Telemetry exporters: JSON-lines metrics, CSV summaries, Chrome traces.

Three complementary views of one :class:`~repro.obs.telemetry.Telemetry`
registry:

* :class:`JsonLinesExporter` — an append-only ``.jsonl`` stream of metric
  records, one JSON object per line (easy to ``jq``/pandas, safe to tail
  while a run is in progress);
* :func:`write_csv_summary` — a flat ``kind,name,...`` CSV of final
  counters, gauges and phase statistics for spreadsheets;
* :func:`write_chrome_trace` — Chrome trace-event JSON (complete ``"X"``
  events) loadable in ``chrome://tracing`` / Perfetto for span-level
  inspection of the ``step/collide``/``step/stream`` hierarchy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .telemetry import Telemetry

__all__ = [
    "JsonLinesExporter",
    "read_jsonl",
    "write_csv_summary",
    "write_chrome_trace",
    "rank_registries",
]


class JsonLinesExporter:
    """Append metric records to a JSON-lines file.

    Usable as a context manager; each :meth:`write` emits one line and
    flushes, so partially-written runs remain loadable.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write(self, record: dict) -> None:
        """Serialize one record as a JSON line and flush."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonLinesExporter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSON-lines file back into a list of records."""
    records = []
    with open(Path(path), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def write_csv_summary(telemetry: Telemetry, path: str | Path) -> Path:
    """Write final counters/gauges/phase statistics as a flat CSV.

    Rows carry a ``kind`` discriminator: phase rows fill the timing
    columns, counter/gauge rows only ``value``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "name", "value", "calls",
                    "total_s", "mean_s", "min_s", "max_s"])
        for name, stats in sorted(telemetry.phases.items()):
            d = stats.to_dict()
            w.writerow(["phase", name, "", d["calls"], f"{d['total_s']:.9f}",
                        f"{d['mean_s']:.9f}", f"{d['min_s']:.9f}",
                        f"{d['max_s']:.9f}"])
        for name, value in sorted(telemetry.counters.items()):
            w.writerow(["counter", name, repr(value), "", "", "", "", ""])
        for name, value in sorted(telemetry.gauges.items()):
            w.writerow(["gauge", name, repr(value), "", "", "", "", ""])
    return path


def _normalize_registries(telemetry, pid: int, tid: int) -> list[tuple]:
    """Normalize the ``telemetry`` argument of :func:`write_chrome_trace`.

    Returns ``[(pid, tid, label, registry), ...]``. Accepts one registry
    (back-compatible single-process trace), a sequence of registries
    (index = rank), or a mapping ``{rank: registry}``.
    """
    if isinstance(telemetry, Telemetry):
        return [(pid, tid, None, telemetry)]
    if isinstance(telemetry, dict):
        items = sorted(telemetry.items(), key=lambda kv: str(kv[0]))
        out = []
        for i, (rank, reg) in enumerate(items):
            row_pid = rank if isinstance(rank, int) else i
            out.append((row_pid, 0, f"rank {rank}", reg))
        return out
    return [(rank, 0, f"rank {rank}", reg)
            for rank, reg in enumerate(telemetry)]


def write_chrome_trace(telemetry, path: str | Path,
                       pid: int = 0, tid: int = 0) -> Path:
    """Write recorded spans as a Chrome trace-event file.

    The output is the standard ``{"traceEvents": [...]}`` JSON object with
    complete (``"ph": "X"``) events in microseconds, which
    ``chrome://tracing`` and https://ui.perfetto.dev load directly. Span
    nesting is reconstructed by the viewer from timestamps; the full
    hierarchical path is kept in ``args.path``.

    ``telemetry`` is either one :class:`Telemetry` registry (a
    single-process trace on ``pid``/``tid``), or the per-rank registries
    of a distributed run — a sequence (index = rank) or a mapping
    ``{rank: registry}``. Multi-rank traces emit one ``pid`` row per rank
    plus ``process_name`` metadata, so Perfetto shows the ranks stacked
    and the exchange/barrier spans aligned across the cohort.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = _normalize_registries(telemetry, pid, tid)
    events = []
    other: dict = {"counters": {}, "gauges": {}}
    for row_pid, row_tid, label, registry in rows:
        if label is not None:
            events.append({
                "name": "process_name", "ph": "M", "pid": row_pid,
                "tid": row_tid, "args": {"name": label},
            })
        for span in registry.spans:
            events.append({
                "name": span.name.rpartition("/")[2],
                "cat": "phase",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": row_pid,
                "tid": row_tid,
                "args": {"path": span.name, "depth": span.depth},
            })
        if label is None:
            other["counters"] = dict(registry.counters)
            other["gauges"] = dict(registry.gauges)
        else:
            other["counters"][label] = dict(registry.counters)
            other["gauges"][label] = dict(registry.gauges)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def rank_registries(rank_spans: list) -> dict[int, Telemetry]:
    """``{rank: registry}`` of a process run's posted spans, for
    :func:`write_chrome_trace`.

    ``rank_spans[r]`` is rank ``r``'s ``(name, start, duration, depth)``
    list, ``start`` on the machine's ``perf_counter`` clock; every
    registry counts from the earliest start, so the ranks share one
    time axis.
    """
    t0 = min((s[1] for spans in rank_spans for s in spans), default=0.0)
    registries = {}
    for rank, spans in enumerate(rank_spans):
        reg = registries[rank] = Telemetry(clock=lambda: t0)
        for name, start, duration, depth in spans:
            reg.add_span(name, start, duration, depth)
    return registries
