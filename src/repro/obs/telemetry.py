"""Telemetry registry: counters, gauges and hierarchical phase timers.

The paper's argument is quantitative — bytes per fluid lattice update,
sector-level DRAM traffic, MLUPS — so the repo needs a measurement
substrate that every layer (reference solvers, virtual-GPU kernels, CLI)
can feed. A :class:`Telemetry` object collects

* **counters** — monotonically accumulated values (steps, launches, bytes),
* **gauges** — last-written values (current max speed, effective GB/s),
* **phase timers** — hierarchical wall-clock spans (``step/collide``,
  ``step/stream``, …) aggregated into per-path statistics and optionally
  kept as individual spans for Chrome trace export.

Instrumented code is written against the telemetry *interface* and holds a
:data:`NULL_TELEMETRY` singleton by default: the disabled path allocates
nothing per step (``phase()`` returns one shared no-op context manager) and
never touches the clock, so hot loops pay only an attribute lookup and an
empty ``with`` block.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "PhaseStats",
    "Span",
    "peak_rss_mb",
]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (``ru_maxrss``).

    A measurement of the process, not a result of the run: it belongs in
    reports, never in anything fingerprinted or compared for equality.
    0.0 where the platform has no ``getrusage``.
    """
    try:
        import resource
    except ImportError:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss    # KiB; macOS: B
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


@dataclass
class Span:
    """One completed phase span (times in seconds since the registry epoch)."""

    name: str          # full hierarchical path, e.g. "step/collide"
    start: float
    duration: float
    depth: int         # nesting depth at the time the span was open


@dataclass
class PhaseStats:
    """Aggregated statistics for one phase path."""

    calls: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0

    def add(self, dt: float) -> None:
        """Fold one span duration into the statistics."""
        self.calls += 1
        self.total += dt
        if dt < self.min:
            self.min = dt
        if dt > self.max:
            self.max = dt

    @property
    def mean(self) -> float:
        """Mean span duration in seconds (0 before any call)."""
        return self.total / self.calls if self.calls else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the aggregate."""
        return {
            "calls": self.calls,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.calls else 0.0,
            "max_s": self.max,
        }


class _NullPhase:
    """Shared no-op context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class NullTelemetry:
    """Disabled telemetry: every hook is a free no-op.

    ``phase()`` hands back one process-wide context manager and the
    counter/gauge hooks return immediately, so instrumented hot loops add
    no per-step allocations and never read the clock.
    """

    __slots__ = ()
    enabled = False

    def phase(self, name: str) -> _NullPhase:
        """Hand back the shared no-op context manager."""
        return _NULL_PHASE

    def count(self, name: str, value: float = 1) -> None:
        """Discard a counter increment."""
        return None

    def gauge(self, name: str, value: float) -> None:
        """Discard a gauge write."""
        return None

    def add_span(self, name: str, start: float, duration: float,
                 depth: int = 0) -> None:
        """Discard an externally-timed span."""
        return None

    def record_traffic(self, report, seconds: float | None = None,
                       prefix: str = "gpu") -> None:
        """Discard a traffic report."""
        return None


#: Process-wide disabled registry; the default for all instrumented objects.
NULL_TELEMETRY = NullTelemetry()


class _PhaseSpan:
    """Reentrant-safe context manager produced by :meth:`Telemetry.phase`."""

    __slots__ = ("_tel", "_name", "_path", "_start")

    def __init__(self, tel: "Telemetry", name: str):
        self._tel = tel
        self._name = name

    def __enter__(self) -> "_PhaseSpan":
        tel = self._tel
        tel._stack.append(self._name)
        self._path = "/".join(tel._stack)
        self._start = tel._clock()
        return self

    def __exit__(self, *exc) -> bool:
        tel = self._tel
        dt = tel._clock() - self._start
        stats = tel.phases.get(self._path)
        if stats is None:
            stats = tel.phases[self._path] = PhaseStats()
        stats.add(dt)
        depth = len(tel._stack) - 1
        tel._stack.pop()
        if tel.record_spans:
            tel._append_span(Span(self._path, self._start - tel._epoch,
                                  dt, depth))
        return False


class Telemetry:
    """Live metrics registry (see module docstring).

    Parameters
    ----------
    record_spans:
        Keep individual :class:`Span` objects (needed for Chrome trace
        export). Aggregated :class:`PhaseStats` are always kept.
    max_spans:
        Hard cap on retained spans; once exceeded, further spans are
        dropped (counted in ``counters["telemetry.spans_dropped"]``) so
        long runs cannot exhaust memory.
    clock:
        Monotonic clock, injectable for tests.
    """

    enabled = True

    def __init__(self, record_spans: bool = True, max_spans: int = 200_000,
                 clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.phases: dict[str, PhaseStats] = {}
        self.spans: list[Span] = []
        self.record_spans = bool(record_spans)
        self.max_spans = int(max_spans)
        self._stack: list[str] = []

    # -- collection hooks -------------------------------------------------
    def phase(self, name: str) -> _PhaseSpan:
        """Context manager timing a (possibly nested) phase."""
        return _PhaseSpan(self, name)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        self.gauges[name] = float(value)

    def add_span(self, name: str, start: float, duration: float,
                 depth: int = 0) -> None:
        """Record an externally-timed span (``start`` on this registry's
        clock, i.e. a ``clock()`` reading).

        ``depth`` is the nesting depth the span should carry in Chrome
        trace export; externally-timed spans (merged per-rank reports,
        wrapped library calls) pass the depth of the hierarchical path
        they belong to so they nest correctly alongside natively-timed
        phases.
        """
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats()
        stats.add(duration)
        if self.record_spans:
            self._append_span(Span(name, start - self._epoch, duration,
                                   int(depth)))

    def _append_span(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.count("telemetry.spans_dropped")

    def record_traffic(self, report, seconds: float | None = None,
                       prefix: str = "gpu") -> None:
        """Accumulate a :class:`~repro.gpu.memory.TrafficReport`.

        Counts both logical bytes and 32-byte sector (DRAM) bytes; with
        ``seconds`` given, also publishes the effective DRAM bandwidth
        gauge — the quantity paper Table 4 compares against peak.
        """
        self.count(f"{prefix}.bytes.logical", report.total_bytes)
        self.count(f"{prefix}.bytes.sector", report.sector_bytes_total)
        self.count(f"{prefix}.transactions.read", report.read_transactions)
        self.count(f"{prefix}.transactions.write", report.write_transactions)
        if seconds is not None and seconds > 0:
            self.gauge(f"{prefix}.effective_gbs",
                       report.sector_bytes_total / seconds / 1e9)

    # -- derived metrics --------------------------------------------------
    def phase_total(self, name: str) -> float:
        """Total seconds accumulated under a phase path (0 if unseen)."""
        stats = self.phases.get(name)
        return stats.total if stats is not None else 0.0

    def mlups(self, n_nodes: int, phase: str = "step",
              steps_counter: str = "steps") -> float:
        """Million lattice updates per second over the recorded run.

        ``n_nodes`` is the number of fluid nodes updated per step; the
        step count comes from ``counters[steps_counter]`` and the wall
        time from the ``phase`` timer.
        """
        steps = self.counters.get(steps_counter, 0)
        total = self.phase_total(phase)
        if steps <= 0 or total <= 0.0:
            return 0.0
        return n_nodes * steps / total / 1e6

    def effective_gbs(self, phase: str = "gpu.step",
                      bytes_counter: str = "gpu.bytes.sector") -> float:
        """Sector-level DRAM GB/s over the accumulated phase time."""
        total = self.phase_total(phase)
        nbytes = self.counters.get(bytes_counter, 0)
        if total <= 0.0:
            return 0.0
        return nbytes / total / 1e9

    def summary(self) -> dict:
        """JSON-serializable snapshot: counters, gauges, phases, peak RSS.

        ``peak_rss_mb`` is :func:`peak_rss_mb` of this process, now.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "phases": {k: v.to_dict() for k, v in sorted(self.phases.items())},
            "n_spans": len(self.spans),
            "peak_rss_mb": peak_rss_mb(),
        }
