"""Worker-process entry point for the multiprocess slab runtime.

Each worker is forked from the parent and inherits the problem's shell
and the cohort's :class:`~repro.parallel.runtime.SharedBlocks`. It
builds its own rank's solver from the shell — the only process that
ever holds that rank's state —, picks its faces out of the blocks
(``attach``), and runs the barrier-synchronized SPMD loop for its single
rank — the one run loop of every ``mrlbm run``
(:func:`repro.loop.run_loop`), stepped by:

1. **pack** — copy the outgoing edge planes into this rank's own send
   buffers (crossing populations for ST, the M-moment plane for MR);
2. **barrier** — everyone's sends are published;
3. **unpack** — read the neighbours' send buffers into this rank's ghost
   planes (writes touch only this rank's memory, so no locks are needed);
4. **barrier** — everyone is done reading, buffers may be overwritten
   next step;
5. **compute** — the rank solver's own collide+stream (the rank *is*
   the single-domain solver of the scheme on its ghosted slab, stepped
   without a clock; its ``stream``/``collide``/``boundary``/
   ``macroscopic`` phases land under ``step/compute/...`` in the rank
   report). The slab state never leaves the process.

After its last step the rank writes ``(rho, u)`` of its owned planes
straight into the global output block (``gather``): with the halo
faces, all the field data that crosses a process boundary.

Fault tolerance hooks ride on that loop's cadences and sinks (see
``docs/PARALLEL.md``):

* **checkpoint** — on the ``RunSpec.checkpoint_every`` cadence, every
  rank writes its interior slab into the per-run checkpoint directory
  and waits at the barrier; rank 0 then seals the snapshot under the
  run's record (``RunSpec.record("process")``). Since all ranks share
  one deterministic schedule, the snapshot is step-consistent by
  construction.
* **resume** — given a checkpoint directory, the worker copies the
  planes of its slab out of whichever rank files hold them
  (:func:`~repro.io.checkpoint.load_slabs`), so the path and rank count
  of the resumed run are free to differ from the writing run's.
* **fault injection** — :func:`~repro.parallel.faults.maybe_inject`
  fires the spec's deterministic fault (exception, kill, hang, corrupt)
  at the configured (rank, step, attempt).
* **watchdog** — on the ``RunSpec.watchdog_every`` cadence the rank
  checks its interior slab for NaN/Inf/over-speed nodes
  (:func:`~repro.obs.watchdog.check_fields`) and converts silent
  corruption into a structured failure.
* **event streaming** — with ``RunSpec.events_dir`` set, the rank
  appends heartbeat/progress/phase/checkpoint/watchdog events to its
  own JSONL stream (:mod:`repro.obs.events`) on the
  ``RunSpec.events_every`` cadence, so ``mrlbm watch`` can tail the
  cohort while it runs, and ends it with ``end`` or ``error`` whatever
  stops the rank's loop; the final report also carries the rank's
  halo-exchange wait time (``exchange_wait_s``, the barrier phases) for
  the merged load-imbalance attribution.

Failures never deadlock the cohort: an exception posts a structured
record to the error queue and aborts the barrier, which unwinds every
sibling with ``BrokenBarrierError``; the parent raises
:class:`~repro.parallel.runtime.ParallelRuntimeError` or relaunches the
cohort from the last checkpoint.
"""

from __future__ import annotations

import os
import traceback
from threading import BrokenBarrierError

from ..io.checkpoint import load_slabs
from ..loop import Cadences, Sinks, run_loop
from ..obs import Telemetry
from .blas import share_cores
from .decomposition import CommunicationReport, DistributedSolver
from .faults import maybe_inject, normalize_fault
from .runtime import RunSpec, SharedBlocks

__all__ = ["worker_main"]


def worker_main(spec: RunSpec, solver: DistributedSolver,
                blocks: SharedBlocks, rank: int, n_steps: int, barrier,
                errq, resq, barrier_timeout: float, start_step: int = 0,
                attempt: int = 0, resume_dir: str | None = None,
                spans: bool = False) -> None:
    """Run one rank of a distributed problem from ``start_step`` to the end.

    Invoked in a forked child by
    :meth:`~repro.parallel.runtime.ProcessRuntime.run`, with the
    parent's shell (``solver``, which has built no rank) and mapped
    ``blocks``; communicates only through those blocks, the step
    ``barrier`` and the ``errq``/``resq`` queues. It builds the solver
    of its own rank, and no other. ``start_step``/``resume_dir``
    continue a checkpointed trajectory; ``attempt`` numbers the
    supervised-retry attempt (0 = first launch) and arms fault
    injection. With ``spans`` the rank's telemetry keeps its phase spans
    and posts them (start times on the machine's ``perf_counter`` clock)
    for a merged trace.
    """
    tel = None
    try:
        blas_threads = share_cores(spec.n_ranks)
        decomp = solver.decomp
        state = solver.rank(rank)
        interior = solver.interior(rank)
        n_fluid = int(state.domain.fluid_mask[interior].sum())
        comm = CommunicationReport()     # this run's, not the parent's
        tel = Telemetry(record_spans=spans)
        state.attach_telemetry(tel)

        if resume_dir:
            with tel.phase("resume"):
                load_slabs(resume_dir, solver, [rank])

        with tel.phase("attach"):
            out = blocks.output
            send_l, send_r = blocks.send_left[rank], blocks.send_right[rank]
            recv_l = (blocks.send_right[decomp.left_of(rank)]
                      if send_l is not None else None)
            recv_r = (blocks.send_left[decomp.right_of(rank)]
                      if send_r is not None else None)

        def exchange_and_step():
            with tel.phase("pack"):
                if send_r is not None:
                    send_r[...] = solver._pack_halo(state, "right")
                    comm.record(send_r.size)
                if send_l is not None:
                    send_l[...] = solver._pack_halo(state, "left")
                    comm.record(send_l.size)
            with tel.phase("barrier"):
                barrier.wait(timeout=barrier_timeout)
            with tel.phase("unpack"):
                if recv_l is not None:
                    solver._unpack_halo(state, "left", recv_l)
                if recv_r is not None:
                    solver._unpack_halo(state, "right", recv_r)
            with tel.phase("barrier"):
                barrier.wait(timeout=barrier_timeout)
            with tel.phase("compute"):
                state.step()
            comm.steps += 1

        def look():
            rho, u = state.macroscopic()
            return (rho[interior], u[:, interior],
                    state.domain.fluid_mask[interior])

        # no fault, no hook: looking at the field is not free
        fault = normalize_fault(spec.fault)
        inject = None if fault is None else lambda at: maybe_inject(
            fault, rank, at, attempt, solver.field(state))
        run_loop(exchange_and_step, look, start_step, n_steps,
                 Cadences(checkpoint=int(spec.checkpoint_every or 0),
                          watchdog=int(spec.watchdog_every or 0),
                          events=spec.events_every),
                 Sinks(telemetry=tel, events=spec.events_dir,
                       checkpoint=spec.checkpoint_dir,
                       keep=spec.checkpoint_keep, fault=inject),
                 spec.record("process"), solver=solver, rank=rank,
                 attempt=attempt, n_fluid=n_fluid, blas_threads=blas_threads,
                 barrier=lambda: barrier.wait(timeout=barrier_timeout))

        with tel.phase("gather"):
            solver.gather_rank(rank, out)
        resq.put({
            "rank": rank,
            "pid": os.getpid(),
            "scheme": solver.scheme,
            "accel": solver.accel,
            "path": state.accel_path,
            "steps": n_steps - start_step,
            "start_step": start_step,
            "attempt": attempt,
            "n_fluid": n_fluid,
            "blas_threads": blas_threads,
            "wall_s": tel.phase_total("step"),
            "exchange_wait_s": tel.phase_total("step/barrier"),
            "comm": comm.to_dict(),
            "summary": tel.summary(),
            "spans": [(s.name, s.start + tel._epoch, s.duration, s.depth)
                      for s in tel.spans],
        })
    except BrokenBarrierError:
        # A sibling failed (or timed out) and aborted the barrier; unwind
        # quietly — the culprit has already posted its failure record (or
        # the parent will synthesize one for a silent death).
        pass
    except Exception as exc:
        try:
            errq.put({
                "rank": rank,
                "exc_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "step": (None if tel is None else
                         start_step + int(tel.counters.get("steps", 0))),
                "attempt": attempt,
                "report": getattr(exc, "report", None),
            })
        finally:
            try:
                barrier.abort()
            except Exception:
                pass
        raise SystemExit(1)
