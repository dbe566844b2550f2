"""Multiprocess SPMD runtime for the distributed slab solvers.

This module turns the emulated decomposition of
:mod:`repro.parallel.decomposition` into genuinely concurrent execution:
every :class:`~repro.parallel.decomposition.SlabDecomposition` rank runs
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
checkpoint up to ``K`` times with linear backoff — a run killed at an
arbitrary step finishes with fields bit-identical to an uninterrupted
one. ``RunSpec.resume_from`` starts a *new* run from a saved
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

import hashlib
import math
import mmap
import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..io.checkpoint import checkpoint_step, latest_checkpoint, resolve_resume
from ..lattice import get_lattice
from ..obs.merge import merge_rank_reports
from ..solver import check_inputs
from .decomposition import (CommunicationReport, DistributedSolver,
                            SlabDecomposition, check_halo_width)
from .faults import FaultSpec, normalize_fault

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

#: Version of the :meth:`RunSpec.fingerprint` encoding, recorded in
#: checkpoint manifests; CHANGES.md records why each bump was made.
#: Resuming a checkpoint written under another version warns and skips
#: the digest comparison instead of failing it spuriously; the job
#: server never serves a result sealed under another version.
FINGERPRINT_VERSION = 5


def problem_identity(kind: str, scheme: str, lattice: str, shape, tau: float,
                     options: dict) -> dict:
    """What a checkpoint records of its problem and a resume checks.

    ``scheme``, ``lattice``, ``shape`` and ``tau`` field by field, and a
    ``fingerprint`` digest of them with the kind and its preset options
    (initial fields, forcing, boundary method, ...) that equally shape
    the trajectory, under :data:`FINGERPRINT_VERSION`. A single-domain
    kind without a :class:`RunSpec` (``power-law``) has one too. The
    fingerprint is also the dedup key of the job server's result cache.
    Array-valued options hash their dtype, shape and bytes.

    Every field is length-prefixed before hashing (and values carry
    their type name), so no two distinct problems can produce the same
    byte stream — version 1 concatenated raw reprs, letting
    ``{"x1": 2}`` and ``{"x": 12}`` collide. Bump
    :data:`FINGERPRINT_VERSION` when this encoding, or the problem a
    spec names, changes.
    """
    h = hashlib.sha256()

    def feed(data: bytes) -> None:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)

    shape = tuple(int(s) for s in shape)
    feed(b"fingerprint-v%d" % FINGERPRINT_VERSION)
    for part in (kind, scheme, lattice):
        feed(str(part).encode())
    feed(repr(shape).encode())
    feed(repr(float(tau)).encode())
    for key in sorted(options):
        value = options[key]
        feed(key.encode())
        if isinstance(value, np.ndarray):
            feed(b"ndarray")
            feed(repr((tuple(value.shape), str(value.dtype))).encode())
            feed(np.ascontiguousarray(value).tobytes())
        else:
            feed(f"{type(value).__name__}:{value!r}".encode())
    return {"scheme": scheme, "lattice": lattice, "shape": shape,
            "tau": float(tau), "fingerprint": h.hexdigest()[:16],
            "fingerprint_version": FINGERPRINT_VERSION}


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of a distributed problem.

    What it builds (:meth:`build`) is a shell — lattice, decomposition,
    global domain, boundary factory and views of the initial fields —
    and each worker builds its own rank's solver from it, once, in its
    own process (the forked workers inherit the parent's shell): only
    halo faces and the final ``(rho, u)`` cross process boundaries
    during a run.

    Parameters
    ----------
    kind:
        A registered problem kind with a distributed form (see
        :func:`repro.service.registry.problem_kinds`).
    scheme:
        ``"ST"``, ``"MR-P"`` or ``"MR-R"``.
    lattice:
        Lattice name, e.g. ``"D2Q9"`` or ``"D3Q19"``.
    shape:
        Global grid shape.
    n_ranks:
        Number of slabs along axis 0 == number of worker processes.
    tau:
        BGK relaxation time.
    options:
        The kind's own options (``u_max``, ``bc_method``, ``rho0``,
        ``u0``, ``force``, ...), with the kind's defaults: the spec
        names the single-domain problem of the same options, cut into
        slabs. Any other name is rejected at construction.
    accel:
        Per-rank execution backend, ``"reference"``, ``"fused"``,
        ``"aa"`` or ``"sparse"`` (see :mod:`repro.accel`): the name is
        checked here, the combination when the ranks are built. A rank
        reads its state through ``solver.f`` / ``solver.m`` like anybody
        else, so a backend that keeps it in a layout of its own between
        steps (``"sparse"``, boundary-free ``"aa"``) puts it right when
        the exchange or a checkpoint looks, at odd and even steps alike.
    fault:
        Deterministic fault injection: a
        :class:`~repro.parallel.faults.FaultSpec` (or a plain dict of
        its fields) makes one rank raise, die, hang or corrupt its slab
        at a chosen step — the test harness for every failure path (see
        :mod:`repro.parallel.faults`).
    checkpoint_dir:
        Per-run checkpoint directory; workers write barrier-aligned
        distributed checkpoints here (see :mod:`repro.io.checkpoint`).
        ``None`` disables checkpointing.
    checkpoint_every:
        Checkpoint cadence in steps (0 disables). A snapshot taken "at
        step s" captures the state after ``s`` completed steps.
    checkpoint_keep:
        How many complete checkpoints to retain; older ones are pruned
        by rank 0 after each new complete snapshot.
    resume_from:
        Checkpoint root (or one specific ``step-*`` directory) to resume
        from: the run continues bit-exactly from the saved step, after
        manifest validation, re-sharding if ``n_ranks`` differs from the
        writing run. With ``resume_from`` set, ``run(n_steps)`` treats
        ``n_steps`` as the *total* step count of the trajectory.
    max_restarts:
        Default supervised-retry budget of :meth:`ProcessRuntime.run`:
        on worker failure the runtime restarts from the newest complete
        checkpoint up to this many times.
    watchdog_every:
        Per-rank stability-watchdog cadence in steps (0 disables): every
        worker checks its interior slab for NaN/Inf/over-speed nodes and
        converts silent corruption into a structured failure.
    events_dir:
        Run directory for the per-rank JSONL event streams (see
        :mod:`repro.obs.events`): every worker appends heartbeat /
        progress / phase / checkpoint / watchdog events there, so a
        live run can be tailed with ``mrlbm watch``. ``None`` disables
        event streaming.
    events_every:
        Heartbeat cadence in steps (default 25 when ``events_dir`` is
        set).
    """

    kind: str
    scheme: str
    lattice: str
    shape: tuple[int, ...]
    n_ranks: int
    tau: float = 0.8
    options: dict = field(default_factory=dict)
    fault: FaultSpec | dict | None = None
    accel: str = "reference"
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    checkpoint_keep: int = 2
    resume_from: str | None = None
    max_restarts: int = 0
    watchdog_every: int = 0
    events_dir: str | None = None
    events_every: int = 25

    def __post_init__(self) -> None:
        """Validate everything that can be checked without building.

        An unknown kind, scheme or ``accel`` name, a kind without a
        distributed form, an option the kind does not take, an unknown
        lattice, a shape of the wrong dimension, ``tau <= 1/2``, a
        lattice the one-node halo cannot carry, a rank count the grid
        cannot be cut into or a field option of the kind
        (``ProblemKind.fields``) that does not fit the grid used to
        surface only when :meth:`build` ran — long after the spec had
        been queued, fingerprinted or pickled, and for some of them as a
        traceback (or a wrong result) in a worker. Failing here keeps
        bad specs out of the system entirely. The check is skipped
        during unpickling (``__reduce__`` restores fields directly).
        """
        from ..service.registry import check_names, get_problem

        kind = get_problem(self.kind, distributed=True)
        kind.check_options(self.options)
        check_names(self.scheme, self.accel)
        lat = get_lattice(self.lattice)
        if len(self.shape) != lat.d:
            raise ValueError(f"shape {tuple(self.shape)} does not match "
                             f"lattice dimension {lat.d}")
        check_inputs(lat, self.shape, self.tau, **{
            k: self.options[k] for k in kind.fields if k in self.options})
        check_halo_width(lat)
        SlabDecomposition(tuple(self.shape), self.n_ranks, periodic=False)

    def identity(self) -> dict:
        """The spec's :func:`problem_identity`."""
        return problem_identity(self.kind, self.scheme, self.lattice,
                                self.shape, self.tau, self.options)

    def fingerprint(self) -> str:
        """Injective digest of the problem identity (kind + preset
        options; see :func:`problem_identity`)."""
        return self.identity()["fingerprint"]

    def build(self) -> DistributedSolver:
        """Construct the emulated solver this spec describes.

        It is a shell that builds a rank's solver when the rank is first
        used (:meth:`~repro.parallel.decomposition.DistributedSolver.rank`).

        Dispatches through the shared problem registry
        (:mod:`repro.service.registry`), so every kind registered there
        — built-in or site-specific — is runnable from a spec.
        """
        from ..service.registry import build_distributed

        return build_distributed(
            self.kind, self.scheme, self.lattice, tuple(self.shape),
            self.n_ranks, tau=self.tau, accel=self.accel, **self.options)


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
        are launched from the newest complete checkpoint (or the
        original starting point when none exists yet), waiting
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
        start_step = 0
        if spec.resume_from:
            resume_dir, start_step = resolve_resume(
                spec.resume_from, n_steps, spec.identity())

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
                    found = latest_checkpoint(spec.checkpoint_dir)
                    if found is not None:
                        resume_dir = str(found)
                        start_step = checkpoint_step(found)
                if resume_dir is None and spec.resume_from:
                    resume_dir, start_step = resolve_resume(
                        spec.resume_from, n_steps, spec.identity())
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
