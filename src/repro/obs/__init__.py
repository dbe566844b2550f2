"""Observability layer: telemetry, exporters, manifests, watchdog, profiling.

A unified measurement substrate shared by the reference solvers, the
virtual-GPU kernels and the CLI (see ``docs/observability.md``):

* :class:`Telemetry` — counters, gauges, hierarchical phase timers and
  derived throughput (MLUPS, effective sector GB/s);
* :data:`NULL_TELEMETRY` — the zero-overhead disabled default;
* :class:`JsonLinesExporter` / :func:`write_csv_summary` /
  :func:`write_chrome_trace` — metric and span exporters;
* :class:`RunManifest` — reproducibility metadata written alongside
  outputs and checkpoints;
* :func:`check_fields` / :class:`StabilityError` — the NaN/Inf/
  over-speed check the run loop samples, with a structured report;
* :func:`profile_scheme` — the harness behind ``mrlbm profile``;
* :class:`EventStream` / :func:`follow_events` — the per-rank JSONL
  event bus behind ``mrlbm watch``.

Every name is resolved on first use of it: a run that only measures
itself does not import the profiling harness, and ``mrlbm watch`` or the
job server (the event streams) import no numpy.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "events": ("EventStream", "RunEventEmitter", "event_files",
               "follow_events", "format_watch", "iter_event_lines",
               "iter_events", "read_events", "summarize_events"),
    "exporters": ("JsonLinesExporter", "read_jsonl", "write_chrome_trace",
                  "write_csv_summary"),
    "manifest": ("RunManifest", "load_manifest", "manifest_path_for"),
    "merge": ("merge_rank_reports",),
    "profile": ("PROFILE_SCHEMES", "format_profile", "profile_scheme"),
    "telemetry": ("NULL_TELEMETRY", "NullTelemetry", "PhaseStats", "Span",
                  "Telemetry"),
    "watchdog": ("SOUND_SPEED", "StabilityError", "check_fields"),
})

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "PhaseStats",
    "Span",
    "JsonLinesExporter",
    "read_jsonl",
    "write_csv_summary",
    "write_chrome_trace",
    "RunManifest",
    "load_manifest",
    "manifest_path_for",
    "StabilityError",
    "SOUND_SPEED",
    "check_fields",
    "profile_scheme",
    "format_profile",
    "PROFILE_SCHEMES",
    "merge_rank_reports",
    # live run event streams
    "EventStream",
    "RunEventEmitter",
    "event_files",
    "follow_events",
    "iter_event_lines",
    "iter_events",
    "format_watch",
    "read_events",
    "summarize_events",
]
