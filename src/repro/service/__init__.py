"""Simulation-as-a-service: problem registry, job scheduler, server, client.

This package turns the one-shot CLI/runtime stack into a long-lived
service (ROADMAP open item 2):

:mod:`repro.service.registry`
    The shared problem registry — one ``kind -> builders`` table used by
    the CLI, the distributed runtime (:meth:`RunSpec.build`), the sweep
    engine and the job server, replacing the open-coded dispatch that
    each entry point used to duplicate.
:mod:`repro.service.jobs`
    The job model and scheduler: a bounded pool of workers running
    queued :class:`~repro.parallel.runtime.RunSpec` jobs, with
    fingerprint-keyed dedup serving repeat submissions from sealed
    result manifests.
:mod:`repro.service.jobproc`
    The warm job process each worker owns: a one-rank job is a
    single-domain run in place, every other job goes through the
    fault-tolerant :class:`~repro.parallel.runtime.ProcessRuntime`.
:mod:`repro.service.server`
    ``mrlbm serve`` — a stdlib-only asyncio HTTP server (TCP or Unix
    socket) exposing submit / list / status / result / event-stream
    endpoints over the scheduler.
:mod:`repro.service.client`
    The blocking client behind ``mrlbm submit`` / ``mrlbm jobs``.

Only the registry is imported with the package: every ``RunSpec`` and
``build_single`` call reaches it, while the scheduler, server and client
(``asyncio``, ``http.client``) are resolved on first use of their names.
"""

from .._lazy import lazy_exports
from .registry import (
    ProblemKind,
    build_distributed,
    build_single,
    get_problem,
    problem_kinds,
    register_problem,
    sweep_kinds,
)

__getattr__ = lazy_exports(__name__, {
    "client": ("ServiceClient", "ServiceError"),
    "jobs": ("Job", "JobScheduler", "job_key", "spec_from_dict"),
    "server": ("JobServer",),
})

__all__ = [
    "ProblemKind",
    "register_problem",
    "get_problem",
    "problem_kinds",
    "sweep_kinds",
    "build_distributed",
    "build_single",
    "Job",
    "JobScheduler",
    "job_key",
    "spec_from_dict",
    "JobServer",
    "ServiceClient",
    "ServiceError",
]
