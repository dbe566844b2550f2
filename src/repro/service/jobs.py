"""Job model and scheduler: a bounded pool of warm job processes.

A *job* is one :class:`~repro.spec.RunSpec` plus a step count. The
:class:`JobScheduler` queues submitted jobs and multiplexes them over a
bounded worker pool — each worker owns one long-lived job process
(:mod:`repro.service.jobproc`) that runs a one-rank job as a
single-domain run in place and every other job through the
fault-tolerant :class:`~repro.parallel.runtime.ProcessRuntime`, so such
a job inherits the runtime's checkpointing, supervised retry and
watchdog machinery. Every job gets its own directory under the
scheduler root holding the per-rank event streams (tailed by the
server's ``/jobs/<id>/events``), the gathered fields, the job's one
record — ``manifest.json``, its run record and results, which the
``/jobs/<id>/result`` payload is read from (:func:`sealed_result`) —
and a ``COMPLETE`` seal.

Dedup: jobs are keyed by :func:`job_key` — the (collision-fixed)
:meth:`RunSpec.fingerprint`, the step count and everything else that
changes the sealed bits: the rank count, the ``accel`` backend and
whether the job steps in place. Re-submitting an
identical spec while the first is queued or running coalesces onto it;
re-submitting after it finished serves the sealed result from cache
without recomputation. Failed keys are cleared so a retry actually
reruns. On startup the scheduler rescans its root and re-adopts every
sealed job directory whose ``fingerprint_version`` matches the current
one, so the cache survives restarts.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..spec import FINGERPRINT_VERSION, RunSpec
from .jobproc import JobProcess

__all__ = ["Job", "JobScheduler", "job_key", "sealed_result",
           "spec_from_dict"]

#: Job states, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

#: RunSpec fields a submission payload may set (beyond the required
#: ones); everything else is rejected so typos fail loudly.
_SPEC_FIELDS = ("kind", "scheme", "lattice", "shape", "n_ranks", "tau",
                "options", "accel", "checkpoint_every", "checkpoint_keep",
                "max_restarts", "watchdog_every", "events_every", "fault")
_REQUIRED = ("kind", "scheme", "lattice", "shape")


def job_key(spec: RunSpec, n_steps: int) -> str:
    """Dedup key of a submission: the problem fingerprint, the step
    count, and what else changes the sealed bits — the rank count, the
    ``accel`` backend, and whether the job steps in place as a single
    domain or as a cohort of processes. A seal keyed by fingerprint and
    steps alone never matches this form."""
    where = "here" if spec.single_domain else "cohort"
    return (f"{spec.fingerprint()}-{int(n_steps):08d}-r{spec.n_ranks}-"
            f"{spec.accel}-{where}")


def spec_from_dict(payload: dict) -> tuple[RunSpec, int]:
    """Validate a JSON submission payload into ``(RunSpec, n_steps)``.

    The payload must carry ``kind``/``scheme``/``lattice``/``shape``
    plus a positive integer ``steps``; it may set any field named in
    ``_SPEC_FIELDS``. Unknown keys, malformed values and unknown
    problem kinds all raise ``ValueError`` with a client-presentable
    message (the server maps them to HTTP 400).
    """
    if not isinstance(payload, dict):
        raise ValueError("a job submission must be a JSON object")
    unknown = sorted(set(payload) - set(_SPEC_FIELDS) - {"steps"})
    if unknown:
        raise ValueError(f"unknown submission field(s): {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED) - set(payload))
    if missing:
        raise ValueError(f"missing required field(s): {', '.join(missing)}")
    try:
        n_steps = int(payload.get("steps", 0))
    except (TypeError, ValueError):
        raise ValueError(f"steps must be an integer, "
                         f"got {payload.get('steps')!r}") from None
    if n_steps <= 0:
        raise ValueError(f"steps must be a positive integer, got {n_steps}")
    shape = payload["shape"]
    if (not isinstance(shape, (list, tuple)) or not shape
            or not all(isinstance(s, int) and s > 0 for s in shape)):
        raise ValueError(f"shape must be a list of positive integers, "
                         f"got {shape!r}")
    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise ValueError(f"options must be an object, got {options!r}")
    kwargs = {k: payload[k] for k in _SPEC_FIELDS
              if k in payload and k not in ("kind", "scheme", "lattice",
                                            "shape", "options")}
    spec = RunSpec(kind=str(payload["kind"]), scheme=str(payload["scheme"]),
                   lattice=str(payload["lattice"]),
                   shape=tuple(int(s) for s in shape),
                   n_ranks=int(payload.get("n_ranks", 1)),
                   options=dict(options), **{k: v for k, v in kwargs.items()
                                             if k != "n_ranks"})
    return spec, n_steps


def sealed_result(manifest: dict) -> dict:
    """The result payload of a sealed job's ``manifest.json``.

    The manifest's ``extra`` — the fingerprint, ``job_key``, ``wall_s``,
    ``mlups``, ``restarts`` and the kind's run results — with the spec
    block ``mrlbm jobs`` shows, ``steps``, ``fields`` and
    ``finished_unix`` (when the manifest was written).
    """
    run = dict(manifest["extra"])
    spec = {k: manifest[k] for k in ("scheme", "lattice", "shape", "tau")}
    spec.update((k, run.pop(k)) for k in ("kind", "n_ranks", "accel"))
    return {**run, "spec": spec, "steps": manifest["steps"],
            "fields": "fields.npz", "finished_unix": manifest["created_unix"]}


@dataclass
class Job:
    """One scheduled run: spec + step count + lifecycle state.

    ``spec`` is ``None`` for sealed jobs re-adopted from disk on
    scheduler restart (the result alone serves cache hits); live
    submissions always carry theirs.
    """

    id: str
    key: str
    spec: RunSpec | None
    n_steps: int
    dir: Path
    state: str = "queued"
    created_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    error: str | None = None
    result: dict | None = None
    hits: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable job summary (what the API returns)."""
        out = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "steps": self.n_steps,
            "dir": str(self.dir),
            "created_unix": self.created_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "error": self.error,
            "hits": self.hits,
        }
        if self.spec is not None:
            out["spec"] = {k: getattr(self.spec, k) for k in (
                "kind", "scheme", "lattice", "shape", "n_ranks", "tau",
                "accel")}
            out["spec"]["shape"] = list(self.spec.shape)
        elif self.result is not None:
            out["spec"] = self.result.get("spec")
        return out


class JobScheduler:
    """Bounded-concurrency job executor with fingerprint dedup.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per job (events, fields,
        manifest, seal). Created on :meth:`start`; rescanned for sealed
        results so the dedup cache survives restarts.
    workers:
        Worker-pool width: how many jobs run concurrently. Each worker
        owns one job process (a process run's ranks fork beneath it).
    run_timeout:
        Per-job wall-clock budget in seconds (``None`` = unbounded): a
        job past it fails, and its job process — with any cohort it
        forked — is killed and replaced.

    Notes
    -----
    All public methods must be called from the event-loop thread. The
    job processes are forked in :meth:`start`, before any job runs and
    after a server binds its socket (which they close); a job's
    execution touches no scheduler state.
    """

    def __init__(self, root: str | Path, workers: int = 2,
                 run_timeout: float | None = None):
        self.root = Path(root)
        self.workers = max(int(workers), 1)
        self.run_timeout = run_timeout
        self.jobs: dict[str, Job] = {}
        self.runs_executed = 0
        self._by_key: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job] | None = None
        self._tasks: list[asyncio.Task] = []
        self._procs: list[JobProcess] = []
        self._next_id = 1

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "JobScheduler":
        """Create the root, re-adopt sealed jobs, fork the job processes."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._rescan()
        self._queue = asyncio.Queue()
        self._procs = [JobProcess(self.workers) for _ in range(self.workers)]
        self._tasks = [asyncio.create_task(self._worker(proc),
                                           name=f"job-w{i}")
                       for i, proc in enumerate(self._procs)]
        return self

    async def close(self) -> None:
        """Cancel the workers; kill the job processes and their cohorts."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        for proc in self._procs:
            proc.stop()
        self._procs = []

    @property
    def job_pids(self) -> list[int]:
        """The pids of the pool's job processes, one per worker."""
        return [proc.pid for proc in self._procs]

    def _rescan(self) -> None:
        """Re-adopt sealed job directories left by a previous scheduler.

        Only results whose recorded ``fingerprint_version`` matches the
        current one are trusted as cache entries — a sealed directory
        from before the fingerprint fix would otherwise serve a result
        keyed by a colliding digest, one from before version 3 a
        result of another problem, one from before version 4 numbers
        the current cores round differently, and one from before version
        5 a one-rank job stepped on a ghosted slab, not as the single
        domain it now is. The job's one record is its ``manifest.json``;
        a directory sealed before it was (beside a ``result.json``, with
        no ``restarts`` in the manifest) is not adopted either, so its
        job reruns. A directory not adopted keeps its id: a new job
        never writes into it.
        """
        for complete in sorted(self.root.glob("job-*/COMPLETE")):
            job_dir = complete.parent
            m = re.fullmatch(r"job-(\d+)", job_dir.name)
            if m is None:
                continue
            self._next_id = max(self._next_id, int(m.group(1)) + 1)
            try:
                manifest = json.loads((job_dir / "manifest.json").read_text(
                    encoding="utf-8"))
                extra = manifest["extra"]
                if (extra["fingerprint_version"] != FINGERPRINT_VERSION
                        or "restarts" not in extra):
                    continue
                result = sealed_result(manifest)
            except (OSError, ValueError, KeyError, TypeError):
                continue
            job = Job(id=job_dir.name, key=result["job_key"], spec=None,
                      n_steps=int(result["steps"]), dir=job_dir,
                      state="done", result=result,
                      finished_unix=result["finished_unix"])
            self.jobs[job.id] = job
            self._by_key.setdefault(job.key, job)

    # -- submission / queries ------------------------------------------
    def submit(self, spec: RunSpec, n_steps: int) -> tuple[Job, bool]:
        """Submit a run; returns ``(job, created)``.

        An identical in-flight or completed submission (same
        :func:`job_key`) coalesces: the existing job is
        returned with ``created=False`` and its ``hits`` counter bumped
        — a completed one serves its sealed result with no recompute.
        A previously *failed* key is cleared and rerun.
        """
        if self._queue is None:
            raise RuntimeError("scheduler is not started")
        key = job_key(spec, n_steps)
        existing = self._by_key.get(key)
        if existing is not None and existing.state != "failed":
            existing.hits += 1
            return existing, False
        job = Job(id=f"job-{self._next_id:06d}", key=key, spec=spec,
                  n_steps=int(n_steps),
                  dir=self.root / f"job-{self._next_id:06d}")
        self._next_id += 1
        self.jobs[job.id] = job
        self._by_key[key] = job
        self._queue.put_nowait(job)
        return job, True

    def get(self, job_id: str) -> Job | None:
        """The job with this id, or ``None``."""
        return self.jobs.get(job_id)

    def list(self) -> list[Job]:
        """Every known job, oldest first."""
        return [self.jobs[k] for k in sorted(self.jobs)]

    # -- execution -----------------------------------------------------
    async def _worker(self, proc: JobProcess) -> None:
        """One pool worker: drain the queue, run each job in its process."""
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            job.state = "running"
            job.started_unix = time.time()
            try:
                state, outcome = await proc.run(job, self.run_timeout)
            except Exception as exc:
                state, outcome = "failed", f"{type(exc).__name__}: {exc}"
            finally:
                self._queue.task_done()
            job.finished_unix = time.time()
            if state == "done":
                job.result = sealed_result(outcome)
                self.runs_executed += 1
            else:
                job.error = outcome
            job.state = state
