"""The one run loop: every ``mrlbm run`` steps through :func:`run_loop`.

A single domain (``solver.step``), an emulated cohort
(:meth:`~repro.parallel.DistributedSolver.step`) and a rank of the
process runtime (halo pack, barrier, unpack, barrier, then the rank
solver's own step; :mod:`repro.parallel.worker`) differ only in their
*stepper* and their *look* — the interior ``(rho, u, fluid_mask)`` the
watchdog checks. Everything else rides on this loop, on one set of
:class:`Cadences`, into one set of :class:`Sinks`:

* ``telemetry`` — the ``step`` phase around every step and the
  ``steps`` counter, counted per step (so a heartbeat's MLUPS is live);
* ``events`` — a :class:`~repro.obs.events.RunEventEmitter`: heartbeat,
  checkpoint and watchdog events, and always one terminal event before
  the stream closes — ``end``, or ``error`` for whatever ends the loop
  early (a divergence, a dead sibling, Ctrl-C);
* the watchdog — :func:`~repro.obs.watchdog.check_fields` of the look,
  raising :class:`~repro.obs.watchdog.StabilityError` with its
  structured report;
* ``checkpoint`` — a writer called with the step count before that
  step (never at the start step: that state is already on disk);
* ``fault`` — called with the step number before every step
  (deterministic fault injection, :mod:`repro.parallel.faults`);
* ``report`` — called with the step count on the report cadence
  (progress lines and ``--metrics`` records).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Callable

from .obs.events import RunEventEmitter
from .obs.telemetry import NULL_TELEMETRY
from .obs.watchdog import check_fields

__all__ = ["Cadences", "Sinks", "run_loop", "watch"]


@dataclass(frozen=True)
class Cadences:
    """Every how many steps each sink fires (0: never)."""

    checkpoint: int = 0
    watchdog: int = 0
    report: int = 0

    def __post_init__(self) -> None:
        """Refuse a negative cadence."""
        for f, every in zip(fields(self), astuple(self)):
            if every < 0:
                raise ValueError(f"the {f.name} cadence must be >= 0 "
                                 f"(0 = off), got {every}")


@dataclass
class Sinks:
    """Where a run's observations go; every one is optional."""

    telemetry: object = None            # None: NULL_TELEMETRY
    events: RunEventEmitter | None = None
    checkpoint: Callable[[int], object] | None = None
    fault: Callable[[int], None] | None = None
    report: Callable[[int], None] | None = None


def watch(look: Callable, telemetry=NULL_TELEMETRY,
          context: dict | None = None) -> dict:
    """One divergence check of ``look()``, timed as the ``watchdog`` phase.

    Counts ``watchdog.checks``, publishes the ``watchdog.max_speed``
    gauge and returns the healthy report; raises
    :class:`~repro.obs.watchdog.StabilityError` on divergence.
    """
    telemetry.count("watchdog.checks")
    with telemetry.phase("watchdog"):
        rho, u, fluid = look()
        report = check_fields(rho, u, fluid, context=context)
    telemetry.gauge("watchdog.max_speed", report["max_speed"])
    return report


def run_loop(step: Callable[[], None], look: Callable, start: int,
             stop: int, cadences: Cadences = Cadences(),
             sinks: Sinks = Sinks(), context: dict | None = None) -> None:
    """Call ``step`` for steps ``start .. stop - 1``, feeding the sinks.

    ``look()`` returns the ``(rho, u, fluid_mask)`` the watchdog checks;
    ``context`` (scheme, rank, ...) goes into its report beside the
    step. Any exception — ``KeyboardInterrupt`` included — is reported
    as the stream's terminal ``error`` event and re-raised.
    """
    tel, events = sinks.telemetry or NULL_TELEMETRY, sinks.events
    at = start
    try:
        for at in range(start, stop):
            if (sinks.checkpoint is not None and cadences.checkpoint
                    and at > start and at % cadences.checkpoint == 0):
                with tel.phase("checkpoint"):
                    where = sinks.checkpoint(at)
                if events is not None:
                    events.checkpoint(at, where)
            if sinks.fault is not None:
                sinks.fault(at)
            with tel.phase("step"):
                step()
            tel.count("steps")
            done = at + 1
            if cadences.watchdog and done % cadences.watchdog == 0:
                watch(look, tel, {**(context or {}), "step": done})
                if events is not None:
                    events.watchdog(done, ok=True)
            if events is not None:
                events.maybe(done)
            if (sinks.report is not None and cadences.report
                    and done % cadences.report == 0):
                sinks.report(done)
        if events is not None:
            events.end(stop, steps=stop - start)
    except BaseException as exc:
        if events is not None:
            events.error(at, type(exc).__name__,
                         str(exc) or type(exc).__doc__ or "")
        raise
    finally:
        if events is not None:
            events.stream.close()
