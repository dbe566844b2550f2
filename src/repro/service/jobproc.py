"""Job processes: where a served job runs.

Every worker of the :class:`~repro.service.jobs.JobScheduler` pool owns
one long-lived *job process*, forked when the scheduler starts (after
the server binds its socket, which the job process closes, and before
any job runs) and kept warm from job to job. The worker sends a job over a pipe and awaits the reply on
the event loop; the job process runs it to its sealed directory
(``_execute``: ``fields.npz``, the one record ``manifest.json``, then
``COMPLETE``) and answers ``("done", manifest)`` or ``("failed",
"Type: message")``.

Inside the job process a job takes one of two routes:

* a :attr:`~repro.spec.RunSpec.single_domain` job (one rank, no
  ``max_restarts``, no ``fault``) is a single-domain run in place — the
  problem's :func:`~repro.service.registry.build_single` solver, whose
  run results (``solver.results()``) the manifest records, stepped by the
  in-process launcher :func:`repro.loop.launch` (``mrlbm run``'s), its
  events on ``events-rank0000.jsonl`` and its checkpoints in ``ckpt/``
  like a cohort's: no ghost planes, no barrier, no fork;
* every other job runs through
  :class:`~repro.parallel.runtime.ProcessRuntime`, whose ranks fork from
  the single-threaded job process.

A job process leads its own process group, so one ``killpg`` stops it
together with any cohort it forked: on a run timeout (the job fails and
a new job process replaces the old one), at :meth:`JobProcess.stop` and
at interpreter exit. A job process that dies mid-job fails that job and
is replaced as well.

The server holds no numerics: it validates, fingerprints and queues with
the numpy-free :mod:`repro.spec`. A job process imports what a job
builds and steps right after its fork (:func:`_warm`: numpy, the
registry's setup bodies, the cores, the run loop and
:class:`~repro.parallel.runtime.ProcessRuntime`), once for all the jobs
it runs — a replacement imports them again — and only then sets its BLAS
threads to its share of the cores
(:func:`repro.parallel.blas.share_cores` over the pool's workers), so
the setter is found in the OpenBLAS numpy mapped. Its reply is plain
Python: one numpy scalar in it would import numpy into the server that
unpickles it.
"""

from __future__ import annotations

import asyncio
import atexit
import ctypes
import dataclasses
import multiprocessing as mp
import multiprocessing.util  # noqa: F401  (its exit hook joins children)
import os
import signal
import stat
import time
import weakref
from importlib import import_module

from ..parallel.blas import share_cores

__all__ = ["JobProcess"]

_LIVE: "weakref.WeakSet[JobProcess]" = weakref.WeakSet()

#: What a job builds and steps, imported by :func:`_warm`.
_NUMERICS = ("numpy", "repro.service.registry", "repro.accel", "repro.loop",
             "repro.io", "repro.parallel.runtime", "repro.parallel.worker")


@atexit.register
def _stop_all() -> None:
    """Stop every job process still running when the interpreter exits.

    Registered after :mod:`multiprocessing.util`'s own exit hook, so it
    runs first: that hook joins non-daemon children, and an idle job
    process would wait on its pipe for ever.
    """
    for handle in list(_LIVE):
        handle.stop()


class JobProcess:
    """The server's handle of one job process (see the module docstring).

    ``workers`` is the pool width the job process shares the cores with.
    """

    def __init__(self, workers: int):
        self.workers = max(int(workers), 1)
        self._fork()

    def _fork(self) -> None:
        ctx = mp.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve,
                                args=(child, self.workers, os.getpid()),
                                name="mrlbm-job-process")
        self.proc.start()
        child.close()
        try:
            os.setpgid(self.proc.pid, self.proc.pid)
        except OSError:
            pass                # the child got there first
        # Readable once the job process ends — its pipe need not report
        # EOF then: the ranks it forked hold its end.
        try:
            self._ended = os.pidfd_open(self.proc.pid)
        except (AttributeError, OSError):   # pragma: no cover - not Linux
            self._ended = os.dup(self.proc.sentinel)
        _LIVE.add(self)

    @property
    def pid(self) -> int:
        """The job process's pid (its process group's id too)."""
        return self.proc.pid

    def stop(self) -> None:
        """SIGKILL the job process's group (its cohort too); reap it.

        Returns once no member of the group runs (a zombie has stopped;
        whoever inherited it reaps it), or after 10 s. It blocks: on the
        event loop, :meth:`_replace` waits instead.
        """
        for _ in self._stopping():
            time.sleep(0.005)

    async def _replace(self) -> None:
        """:meth:`stop`, awaiting the group's end so the server goes on
        answering meanwhile; then fork a fresh job process."""
        for _ in self._stopping():
            await asyncio.sleep(0.005)
        self._fork()

    def _stopping(self):
        """SIGKILL the group and close this handle's ends (again after a
        :meth:`_replace` cancelled mid-wait); yield while the job process
        is unreaped (``is_alive`` reaps it) or a member of its group runs."""
        _LIVE.discard(self)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            self.proc.kill()
        self.conn.close()
        if self._ended is not None:
            os.close(self._ended)
            self._ended = None
        until = time.monotonic() + 10.0
        while ((self.proc.is_alive() or _group_running(self.proc.pid))
               and time.monotonic() < until):
            yield

    async def run(self, job, timeout: float | None) -> tuple[str, object]:
        """Run ``job`` in the job process; ``(state, result or error)``.

        Past ``timeout`` seconds, or when the job process dies mid-job,
        the job fails with a structured error and a fresh job process
        replaces this one.
        """
        if not self.proc.is_alive():
            await self._replace()
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        watched = (self.conn.fileno(), self._ended)
        try:
            self.conn.send(job)
            for fd in watched:
                loop.add_reader(fd, lambda: ready.done()
                                or ready.set_result(0))
            try:
                await asyncio.wait_for(ready, timeout)
            finally:
                for fd in watched:
                    loop.remove_reader(fd)
            if not self.conn.poll():
                raise EOFError      # it ended without a reply
            return self.conn.recv()
        except asyncio.TimeoutError:
            error = (f"TimeoutError: the job ran past the run timeout of "
                     f"{timeout:g} s; its job process was killed")
        except (EOFError, OSError):
            until = time.monotonic() + 1.0     # as _replace waits: no join
            while self.proc.is_alive() and time.monotonic() < until:
                await asyncio.sleep(0.005)
            error = (f"JobProcessDied: the job process (pid {self.pid}) "
                     f"ended mid-job, exit code {self.proc.exitcode}")
        await self._replace()
        return "failed", f"{error} and replaced"


def _group_running(group: int) -> bool:
    """Whether a process of process group ``group`` runs (not a zombie)."""
    try:
        pids = [p for p in os.listdir("/proc") if p.isdigit()]
    except OSError:             # pragma: no cover - no procfs
        return False
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                state, _, pgrp = fh.read().rsplit(b")", 1)[1].split()[:3]
        except OSError:
            continue                    # it ended while we looked
        if int(pgrp) == group and state not in (b"Z", b"X"):
            return True
    return False


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a fork handed down but ``keep``.

    A job process — every one is forked after the server bound its
    socket — must not hold it, nor a client connection — a client
    reading an event stream to EOF would wait for it — nor another job
    process's pipe, nor the server's end of its own.
    """
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:             # pragma: no cover - no procfs
        return
    for fd in fds:
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass


def _die_with(server_pid: int) -> None:
    """End this process's group when the server ends, however it ends.

    An idle job process sees the end of its pipe anyway; this also stops
    one that is mid-job, with its cohort: the kernel sends SIGTERM when
    the server dies (Linux), and the handler SIGKILLs the whole group.
    """
    group = os.getpid()                 # it leads its own process group
    signal.signal(signal.SIGTERM, lambda *_: os.killpg(group, signal.SIGKILL))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))     # a rank's own SIGTERM is its own
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):   # pragma: no cover - not Linux
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(1, signal.SIGTERM) == 0 and os.getppid() != server_pid:
        os.killpg(group, signal.SIGKILL)    # PR_SET_PDEATHSIG came too late


def _warm() -> None:
    """Import :data:`_NUMERICS` — in the job process, never the server."""
    for name in _NUMERICS:
        import_module(name)


def _serve(conn, workers: int, server_pid: int) -> None:
    """Job-process main loop: run each job received on ``conn`` until EOF."""
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    _die_with(server_pid)
    try:
        signal.set_wakeup_fd(-1)    # may name a socket closed below
    except (ValueError, OSError):
        pass
    _close_inherited_sockets(keep=conn.fileno())
    _warm()
    blas_threads = share_cores(workers)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return                  # the server is gone
        try:
            reply = "done", _execute(job, blas_threads)
        except Exception as exc:
            reply = "failed", f"{type(exc).__name__}: {exc}"
        conn.send(reply)


def _execute(job, blas_threads: int | str) -> dict:
    """Run one job to completion and seal its directory (job process);
    returns its one record, the sealed ``manifest.json``, as plain
    Python."""
    from ..io.snapshots import save_archive
    from ..obs.manifest import RunManifest

    spec = job.spec
    assert spec is not None
    job.dir.mkdir(parents=True, exist_ok=True)
    here, restarts, accel_path, results = spec.single_domain, 0, None, {}
    record = spec.record("single" if here else "process")
    if here:
        from ..loop import Cadences, Sinks, launch
        from ..obs import Telemetry
        from .registry import build_single

        solver = build_single(spec.kind, spec.scheme, spec.lattice,
                              tuple(spec.shape), tau=spec.tau,
                              backend=spec.accel, **spec.options)
        rho, u, _, wall, mlups = launch(
            solver, record, job.n_steps,
            Cadences(checkpoint=int(spec.checkpoint_every or 0),
                     watchdog=int(spec.watchdog_every or 0),
                     events=spec.events_every),
            Sinks(telemetry=Telemetry(record_spans=False), events=job.dir,
                  checkpoint=job.dir / "ckpt", keep=spec.checkpoint_keep),
            blas_threads=blas_threads)
        accel_path = solver.accel_path
        results = solver.results()
    else:
        from ..parallel.runtime import ProcessRuntime

        outcome = ProcessRuntime(dataclasses.replace(
            spec, events_dir=str(job.dir),
            checkpoint_dir=(str(job.dir / "ckpt") if spec.checkpoint_every
                            else spec.checkpoint_dir))).run(job.n_steps)
        rho, u, wall = outcome.rho, outcome.u, outcome.wall_s
        mlups, restarts = outcome.report.get("mlups", 0.0), outcome.restarts

    save_archive(job.dir / "fields.npz", rho=rho, u=u)
    manifest = RunManifest.from_identity(
        record, job.n_steps, job_key=job.key, wall_s=float(wall),
        mlups=float(mlups), restarts=int(restarts), blas_threads=blas_threads,
        accel_path=accel_path, **results)
    manifest.write(job.dir / "manifest.json")
    (job.dir / "COMPLETE").write_text("sealed\n", encoding="utf-8")
    return manifest.to_dict()
