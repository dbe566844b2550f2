"""Multiprocess SPMD runtime for the distributed slab solvers.

This module turns the emulated decomposition of
:mod:`repro.parallel.decomposition` into genuinely concurrent execution:
every :class:`~repro.spec.SlabDecomposition` rank runs
as a real OS process, forked from the parent, that owns its slab state
privately; only its one-node halo face buffers and one global ``(rho,
u)`` output block, written once by every rank after its last step, are
shared — anonymous shared mappings the parent makes before each fork and
the ranks inherit — and the collide -> exchange -> stream cadence is
synchronized by a ``multiprocessing.Barrier`` (two waits per step; see
``docs/PARALLEL.md`` for the protocol proof sketch).

The payload on the "wire" (the shared face buffers) is exactly what the
emulated backend accounts: ST ranks ship the crossing populations of the
edge plane, MR ranks ship the compressed M-moment plane (10 values per
face node in D3Q19) and reconstruct the crossing populations locally.
Both backends therefore reproduce the single-domain reference solvers to
machine precision, and :class:`CommunicationReport` totals agree between
them.

On any worker failure the runtime degrades gracefully instead of
deadlocking: the failing rank posts a structured
:class:`WorkerFailure` and aborts the barrier, the surviving ranks
unwind on ``BrokenBarrierError``, and the parent raises
:class:`ParallelRuntimeError`. Workers that die without a trace
(SIGKILL, hangs — see :mod:`repro.parallel.faults`) are detected through
the barrier timeout and the parent's straggler grace period, then
terminated with SIGTERM→SIGKILL escalation so no zombie outlives the
run. The shared blocks have no name: the kernel frees them with the last
process that maps them, so nothing is left in ``/dev/shm`` however the
cohort ends — even when its whole process group is killed.

On top of that degrade-cleanly baseline sits *supervised recovery*:
with ``RunSpec.checkpoint_dir``/``checkpoint_every`` set, the worker
ranks write barrier-aligned distributed checkpoints (see
:mod:`repro.io.checkpoint`), and ``ProcessRuntime.run(...,
max_restarts=K)`` restarts a failed cohort from the newest complete
checkpoint of the same problem up to ``K`` times with linear backoff —
a run killed at an arbitrary step finishes with fields bit-identical to
an uninterrupted one. ``RunSpec.resume_from`` starts a *new* run from a saved
checkpoint, re-sharding when the rank count changed.

Entry points
------------
:func:`run_process`
    One-call API: build the problem from a :class:`RunSpec`, run it on
    ``spec.n_ranks`` worker processes, return a :class:`ProcessRunResult`
    with the gathered fields, communication accounting and the merged
    per-rank telemetry report.
:class:`ProcessRuntime`
    The reusable object behind it.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..io.checkpoint import resolve_resume
from ..obs.merge import merge_rank_reports
from ..spec import FINGERPRINT_VERSION, RunSpec, problem_identity
from .decomposition import CommunicationReport, DistributedSolver
from .faults import normalize_fault

__all__ = [
    "FINGERPRINT_VERSION",
    "problem_identity",
    "RunSpec",
    "WorkerFailure",
    "ParallelRuntimeError",
    "ProcessRunResult",
    "ProcessRuntime",
    "run_process",
]

@dataclass
class WorkerFailure:
    """Structured record of one worker's failure."""

    rank: int
    exc_type: str
    message: str
    traceback: str = ""
    step: int | None = None
    attempt: int = 0
    report: dict | None = None      # a divergence's structured report

    def __str__(self) -> str:
        """One-line ``rank N: Type: message`` rendering."""
        at = f" (step {self.step})" if self.step is not None else ""
        return f"rank {self.rank}: {self.exc_type}: {self.message}{at}"


class ParallelRuntimeError(RuntimeError):
    """A distributed run failed; carries every rank's failure record.

    ``failures`` holds the final attempt's records; ``failure_history``
    every attempt's (one list per attempt) when supervised retries were
    in play; ``restarts`` counts the restarts that were tried.
    """

    def __init__(self, failures: list[WorkerFailure],
                 failure_history: list[list[WorkerFailure]] | None = None):
        self.failures = failures
        self.failure_history = (failure_history if failure_history is not None
                                else [failures])
        self.restarts = max(len(self.failure_history) - 1, 0)
        lines = "\n  ".join(str(f) for f in failures) or "no failure detail"
        retried = (f" (after {self.restarts} restart(s))"
                   if self.restarts else "")
        super().__init__(
            f"{len(failures)} worker(s) failed{retried}:\n  {lines}")


@dataclass
class ProcessRunResult:
    """Outcome of a successful :func:`run_process` call.

    ``steps`` is the trajectory's total step count; ``start_step`` the
    checkpoint step the run was resumed from (0 for a fresh start);
    ``restarts`` how many supervised restarts recovery needed, with the
    per-attempt failure records in ``failure_history``; ``spans`` each
    rank's phase spans, when the run was asked to keep them.
    """

    rho: np.ndarray
    u: np.ndarray
    comm: CommunicationReport
    report: dict
    per_rank: list[dict]
    steps: int
    n_ranks: int
    wall_s: float
    start_step: int = 0
    restarts: int = 0
    failure_history: list = field(default_factory=list)
    spans: list = field(default_factory=list)


@dataclass
class SharedBlocks:
    """The blocks one cohort shares: float64 views of anonymous mappings.

    One global ``(1 + D, *shape)`` output block — ``rho`` then ``u``,
    each rank writing its own interior planes once, after its last step
    — and per rank up to two directed send buffers holding one face
    payload each. A rank's slab state is private to its process.
    """

    output: np.ndarray
    send_left: list[np.ndarray | None]
    send_right: list[np.ndarray | None]


def _map_blocks(solver: DistributedSolver) -> SharedBlocks:
    """Map one cohort's blocks as anonymous shared memory, before it forks.

    The forked ranks inherit the mappings; nothing is named, so nothing
    is attached, unlinked or handed to a resource tracker, and the
    kernel frees the pages once the last process holding them is gone.
    """
    def block(shape):
        return np.ndarray(shape, np.float64,
                          mmap.mmap(-1, 8 * math.prod(shape)))

    decomp, shape = solver.decomp, solver.global_domain.shape
    # One directed face payload: its components over one cut plane.
    payload = (solver.halo_values_per_direction() // decomp.face_nodes,
               *shape[1:])
    ranks = range(decomp.n_ranks)
    return SharedBlocks(
        block((1 + solver.lat.d, *shape)),
        [block(payload) if decomp.has_left(r) else None for r in ranks],
        [block(payload) if decomp.has_right(r) else None for r in ranks])


class ProcessRuntime:
    """Run a :class:`RunSpec` on forked worker processes over shared memory.

    The parent builds the spec's shell once — every construction-time
    refusal fires here, before any fork — and never builds a rank: the
    shell is the *shape oracle* the shared blocks are laid out from and
    what every worker cohort (first launch or retry) inherits, along
    with the blocks, mapped afresh before each fork. A worker builds its
    own rank's solver, and nobody else does. The ranks gather, each
    writing its owned planes of ``(rho, u)`` into the shared output
    block. A platform that cannot ``fork`` is refused.

    Parameters
    ----------
    spec:
        The problem to run.
    barrier_timeout:
        Seconds any rank waits at a halo barrier before declaring the
        cohort broken. Guards against deadlock if a sibling dies without
        aborting the barrier.
    straggler_grace:
        Seconds the parent lets surviving workers keep running after the
        first sign of cohort failure (a failure record, or a worker dead
        without its result) before terminating them — this is what turns
        a hung rank into a structured error instead of a deadlock.
    """

    def __init__(self, spec: RunSpec, barrier_timeout: float = 120.0,
                 straggler_grace: float = 15.0):
        if "fork" not in mp.get_all_start_methods():
            raise ValueError("the process backend forks its ranks and this "
                             "platform cannot fork; run with --backend "
                             "emulated")
        # Validate the fault spec eagerly, in the parent.
        normalize_fault(spec.fault)
        self.spec = spec
        self.solver = spec.build()
        self._ctx = mp.get_context("fork")
        self.barrier_timeout = float(barrier_timeout)
        self.straggler_grace = float(straggler_grace)

    # -- internals --------------------------------------------------------
    @staticmethod
    def _drain(errq, resq, results: dict[int, dict],
               failures: list[WorkerFailure]) -> None:
        """Pull everything currently buffered on both queues."""
        for q, is_err in ((errq, True), (resq, False)):
            while True:
                try:
                    item = q.get_nowait()
                except Exception:
                    break
                if is_err:
                    failures.append(WorkerFailure(**item))
                else:
                    results[item["rank"]] = item

    def _harvest(self, procs, errq, resq, run_timeout):
        """Join workers while draining both queues; return (results, failures).

        Cohort-failure detection: the first failure record — or a worker
        found dead without having posted its result — arms a
        ``straggler_grace`` countdown; survivors still running when it
        expires (hung ranks that will never reach another barrier) are
        terminated, with SIGTERM → SIGKILL escalation and a structured
        :class:`WorkerFailure` instead of a silently leaked zombie.
        """
        results: dict[int, dict] = {}
        failures: list[WorkerFailure] = []
        deadline = None if run_timeout is None else time.monotonic() + run_timeout
        doom_deadline = None
        while True:
            self._drain(errq, resq, results, failures)
            alive = [p for p in procs if p.is_alive()]
            if not alive:
                break
            now = time.monotonic()
            if deadline is not None and now > deadline:
                failures.append(WorkerFailure(
                    -1, "TimeoutError",
                    f"run exceeded {run_timeout:.0f}s; "
                    f"ranks still alive: {[p.name for p in alive]}"))
                break
            # A dead rank that never posted its result can no longer
            # serve its barrier — the cohort is doomed. (A just-exited
            # healthy rank's result may still be in flight, so this only
            # arms a grace countdown; the next drain clears it.)
            doomed = bool(failures) or any(
                not p.is_alive() and r not in results
                for r, p in enumerate(procs))
            if not doomed:
                doom_deadline = None
            elif doom_deadline is None:
                doom_deadline = now + self.straggler_grace
            elif now > doom_deadline:
                for r, p in enumerate(procs):
                    if p.is_alive():
                        failures.append(WorkerFailure(
                            r, "Straggler",
                            f"rank still running {self.straggler_grace:.0f}s "
                            "after the cohort failed (hung or deadlocked); "
                            "terminating"))
                break
            alive[0].join(timeout=0.02)
        for p in procs:
            if p.is_alive():
                p.terminate()
        for r, p in enumerate(procs):
            p.join(timeout=5.0)
            if p.is_alive():
                # terminate() was ignored (e.g. a worker stuck in
                # uninterruptible state): escalate rather than leak.
                p.kill()
                p.join(timeout=5.0)
                failures.append(WorkerFailure(
                    r, "ZombieKilled",
                    "worker ignored SIGTERM for 5s after the run ended; "
                    "escalated to SIGKILL"))
        self._drain(errq, resq, results, failures)
        for r, p in enumerate(procs):
            if p.exitcode not in (0, None) and not any(
                    f.rank == r for f in failures):
                failures.append(WorkerFailure(
                    r, "ProcessExit", f"worker exited with code {p.exitcode} "
                    "without reporting a failure"))
        return results, failures

    # -- API --------------------------------------------------------------
    def run(self, n_steps: int, run_timeout: float | None = None,
            max_restarts: int | None = None,
            restart_backoff: float = 0.5,
            spans: bool = False) -> ProcessRunResult:
        """Run the trajectory to ``n_steps`` total steps on all ranks.

        Without ``spec.resume_from`` this executes ``n_steps``
        barrier-synchronized steps from scratch, exactly as before; with
        it, the run continues from the validated checkpoint until the
        trajectory totals ``n_steps``.

        Supervised recovery: when any worker fails, up to
        ``max_restarts`` (default ``spec.max_restarts``) fresh cohorts
        are launched from the newest complete checkpoint of this problem
        (:func:`~repro.io.checkpoint.resolve_resume`), or from the
        original starting point, waiting
        ``restart_backoff * attempt`` seconds between attempts. Every
        attempt maps blocks of its own, which go with it.

        Returns the gathered fields plus the merged telemetry report
        (with ``spans``, every rank's phase spans too), or raises
        :class:`ParallelRuntimeError` carrying every attempt's failure
        records once the restart budget is exhausted.
        """
        spec = self.spec
        n_steps = int(n_steps)
        if max_restarts is None:
            max_restarts = int(spec.max_restarts)
        resume_dir: str | None = None
        start_step, record = 0, spec.record("process")
        if spec.resume_from:
            resume_dir, start_step = resolve_resume(
                spec.resume_from, n_steps, record)

        failure_history: list[list[WorkerFailure]] = []
        attempt = 0
        while True:
            try:
                result = self._run_attempt(
                    n_steps, start_step, attempt, resume_dir, run_timeout,
                    spans)
            except ParallelRuntimeError as err:
                for f in err.failures:
                    f.attempt = attempt
                failure_history.append(err.failures)
                if attempt >= max_restarts:
                    raise ParallelRuntimeError(
                        err.failures, failure_history) from None
                attempt += 1
                resume_dir, start_step = None, 0
                if spec.checkpoint_dir:
                    # this problem's newest snapshot, validated like any
                    # resume; another problem's newer ones are passed over
                    try:
                        resume_dir, start_step = resolve_resume(
                            spec.checkpoint_dir, n_steps, record)
                    except (FileNotFoundError, ValueError):
                        pass
                if resume_dir is None and spec.resume_from:
                    resume_dir, start_step = resolve_resume(
                        spec.resume_from, n_steps, record)
                time.sleep(restart_backoff * attempt)
                continue
            # Labels of the last run; every run starts from scratch.
            self.solver.time = n_steps
            self.solver.comm = result.comm
            result.restarts = attempt
            result.failure_history = failure_history
            report = result.report
            report["restarts"] = attempt
            report["failures"] = [asdict(f)
                                  for fs in failure_history for f in fs]
            report.setdefault("counters", {})["runtime.restarts"] = attempt
            return result

    def _run_attempt(self, n_steps: int, start_step: int, attempt: int,
                     resume_dir: str | None, run_timeout: float | None,
                     spans: bool) -> ProcessRunResult:
        """Launch one worker cohort and harvest it (one retry attempt).

        The cohort's blocks are mapped here and unmapped when the last
        reference to them goes: the parent's when this returns or
        raises, a rank's when it exits.
        """
        from .worker import worker_main

        spec = self.spec
        blocks = _map_blocks(self.solver)
        barrier = self._ctx.Barrier(spec.n_ranks)
        errq = self._ctx.Queue()
        resq = self._ctx.Queue()
        procs = [
            self._ctx.Process(
                target=worker_main, name=f"mrlbm-rank{r}",
                args=(spec, self.solver, blocks, r, n_steps, barrier, errq,
                      resq, self.barrier_timeout, start_step, attempt,
                      resume_dir),
                kwargs={"spans": spans}, daemon=True)
            for r in range(spec.n_ranks)
        ]
        t0 = time.perf_counter()
        try:
            for p in procs:
                p.start()
            results, failures = self._harvest(procs, errq, resq, run_timeout)
        except KeyboardInterrupt:
            # SIGINT lands on the whole foreground process group, so the
            # workers are dying too — but _harvest was unwound mid-join,
            # skipping its terminate/escalate path. Tear the cohort down
            # here so no rank outlives the parent, then let the interrupt
            # propagate (the CLI maps it to exit 130).
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=2.0)
                if p.is_alive():
                    p.kill()
                    p.join(timeout=2.0)
            raise
        wall = time.perf_counter() - t0
        if failures or len(results) != spec.n_ranks:
            if not failures:
                missing = sorted(set(range(spec.n_ranks)) - set(results))
                failures = [WorkerFailure(
                    r, "MissingResult",
                    "worker exited without posting a result")
                    for r in missing]
            raise ParallelRuntimeError(failures)

        # The ranks gathered: copy the global fields out of the output
        # block, which goes with this frame.
        rho, u = blocks.output[0].copy(), blocks.output[1:].copy()
        per_rank = [results[r] for r in range(spec.n_ranks)]
        rank_spans = [rep.pop("spans") for rep in per_rank]
        report = merge_rank_reports(per_rank, wall_s=wall)
        comm = CommunicationReport(**{
            k: report["comm"][k] for k in ("bytes_sent", "messages", "steps")})
        return ProcessRunResult(rho=rho, u=u, comm=comm, report=report,
                                per_rank=per_rank, steps=n_steps,
                                n_ranks=spec.n_ranks, wall_s=wall,
                                start_step=start_step, spans=rank_spans)


def run_process(spec: RunSpec, n_steps: int,
                barrier_timeout: float = 120.0,
                run_timeout: float | None = None,
                max_restarts: int | None = None,
                straggler_grace: float = 15.0) -> ProcessRunResult:
    """Build and run ``spec`` on ``spec.n_ranks`` worker processes."""
    runtime = ProcessRuntime(spec, barrier_timeout=barrier_timeout,
                             straggler_grace=straggler_grace)
    return runtime.run(n_steps, run_timeout=run_timeout,
                       max_restarts=max_restarts)
