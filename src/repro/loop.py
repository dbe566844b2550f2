"""The one run loop, and the one launcher of a run in this process.

A single domain (``solver.step``), an emulated cohort
(:meth:`~repro.parallel.DistributedSolver.step`) and a rank of the
process runtime (halo pack, barrier, unpack, barrier, then the rank
solver's own step; :mod:`repro.parallel.worker`) differ only in their
*stepper* and their *look* — the interior ``(rho, u, fluid_mask)`` the
watchdog checks. Everything else rides on :func:`run_loop`, on one set
of :class:`Cadences`, into one set of :class:`Sinks`, under one run
*record* (:func:`repro.spec.run_record`):

* ``telemetry`` — the ``step`` phase around every step and the
  ``steps`` counter, counted per step (so a heartbeat's MLUPS is live);
* ``events`` — the run directory of this rank's stream
  (:class:`~repro.obs.events.RunEventEmitter`): a ``start`` event
  carrying the record, heartbeat, checkpoint and watchdog events, and
  always one terminal event — ``end``, or ``error`` for whatever ends
  the loop early (a divergence, a dead sibling, Ctrl-C);
* the watchdog — :func:`~repro.obs.watchdog.check_fields` of the look,
  the record its context, raising
  :class:`~repro.obs.watchdog.StabilityError` with its report;
* ``checkpoint`` — the checkpoint root, written at the checkpoint steps
  (never the start step: that state is already on disk) and sealed
  under the record (:func:`~repro.io.checkpoint.checkpoint_sink`);
* ``fault`` — called with the step number before every step
  (deterministic fault injection, :mod:`repro.parallel.faults`);
* ``report`` — called on the report cadence (progress lines and
  ``--metrics`` records).

:func:`launch` steps a single domain or an emulated cohort on that loop
in this process: ``mrlbm run``, a served one-rank job, a sweep member.
"""

from __future__ import annotations

import os
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .io.checkpoint import checkpoint_sink, load_slabs, resolve_resume
from .obs.events import EventStream, RunEventEmitter
from .obs.telemetry import NULL_TELEMETRY
from .obs.watchdog import check_fields

__all__ = ["Cadences", "Sinks", "run_loop", "watch", "launch"]


@dataclass(frozen=True)
class Cadences:
    """Every how many steps each sink fires (0: never).

    The event heartbeat's 0 is its default, 25, on every path.
    """

    checkpoint: int = 0
    watchdog: int = 0
    report: int = 0
    events: int = 25

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
    events: str | Path | None = None    # the run directory of the streams
    checkpoint: str | Path | None = None    # the checkpoint root
    keep: int = 2                       # complete snapshots of it kept
    fault: Callable[[int], None] | None = None
    report: Callable | None = None


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
             sinks: Sinks = Sinks(), record: dict | None = None, *,
             solver=None, rank: int | None = None, attempt: int = 0,
             barrier: Callable[[], None] | None = None, n_fluid: int = 0,
             blas_threads: int | None = None) -> None:
    """Call ``step`` for steps ``start .. stop - 1``, feeding the sinks.

    ``look()`` returns the ``(rho, u, fluid_mask)`` the watchdog checks;
    ``record`` (:func:`repro.spec.run_record`) is its context (with
    ``rank``), the ``start`` event's and every checkpoint manifest's.
    A checkpoint saves ``solver`` whole (a single domain or an emulated
    cohort) or, with ``rank``, that rank's slab, rank 0 sealing after
    ``barrier()``. The stream is ``rank``'s (or 0's) for retry
    ``attempt``; its MLUPS count ``n_fluid`` nodes. Any exception —
    ``KeyboardInterrupt`` included — is the stream's terminal ``error``
    event, and is re-raised.
    """
    record = record or {}
    tel = sinks.telemetry or NULL_TELEMETRY
    context = record if rank is None else {**record, "rank": rank}
    events = checkpoint = None
    if sinks.checkpoint is not None and cadences.checkpoint:
        checkpoint = checkpoint_sink(sinks.checkpoint, solver, record,
                                     sinks.keep, rank=rank, barrier=barrier)
    if sinks.events is not None:
        events = RunEventEmitter(
            EventStream(sinks.events, rank=rank or 0, attempt=attempt),
            every=cadences.events or 25, n_steps=stop, start_step=start,
            telemetry=sinks.telemetry, n_fluid=n_fluid)
        events.start(pid=os.getpid(), n_fluid=n_fluid, resumed=start > 0,
                     blas_threads=blas_threads, record=record)
    at = start
    try:
        for at in range(start, stop):
            if checkpoint is not None and at > start \
                    and at % cadences.checkpoint == 0:
                with tel.phase("checkpoint"):
                    where = checkpoint(at)
                if events is not None:
                    events.checkpoint(at, where)
            if sinks.fault is not None:
                sinks.fault(at)
            with tel.phase("step"):
                step()
            tel.count("steps")
            done = at + 1
            if cadences.watchdog and done % cadences.watchdog == 0:
                watch(look, tel, {**context, "step": done})
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


def launch(solver, record: dict, stop: int, cadences: Cadences = Cadences(),
           sinks: Sinks = Sinks(), resume: str | Path | None = None,
           blas_threads: int | None = None) -> tuple:
    """Step a single domain or an emulated cohort on :func:`run_loop`.

    ``solver`` steps to ``stop``, resumed from the newest checkpoint of
    the record's problem under ``resume`` when given.

    ``sinks.telemetry`` is attached to every solver that steps;
    ``sinks.report`` gets a progress row. Returns ``(rho, u, start,
    wall_s, mlups)``: MLUPS is the telemetry's step rate, or without one
    the fluid-node updates over the loop's wall time.
    """
    cohort = hasattr(solver, "decomp")
    start = 0
    if resume:
        step_dir, start = resolve_resume(resume, stop, record)
        load_slabs(step_dir, solver)
        solver.time = start
    tel = sinks.telemetry
    for each in solver.ranks if cohort else [solver]:
        each.attach_telemetry(tel)
    fluid = (solver.global_domain if cohort else solver.domain).fluid_mask
    look = solver.gather_macroscopic if cohort else solver.macroscopic
    n_fluid = int(fluid.sum())

    def step():
        solver.step()
        solver.time += 1

    def report(done):
        elapsed = time.perf_counter() - t0
        rho, u = look()
        speed = np.sqrt(np.einsum("a...,a...->...", u, u))[fluid].max()
        sinks.report({"step": done, "elapsed_s": elapsed,
                      "mlups": n_fluid * (done - start) / elapsed / 1e6,
                      "max_speed": float(speed),
                      "mass": float(rho[fluid].sum())})

    t0 = time.perf_counter()
    run_loop(step, lambda: (*look(), fluid), start, stop, cadences,
             replace(sinks, report=sinks.report and report), record,
             solver=solver, n_fluid=n_fluid, blas_threads=blas_threads)
    wall = time.perf_counter() - t0
    mlups = (tel.mlups(n_fluid) if tel else
             n_fluid * (stop - start) / wall / 1e6 if wall > 0 else 0.0)
    return (*look(), start, wall, mlups)
