"""Simulation-as-a-service: problem registry, job scheduler, server, client.

This package turns the one-shot CLI/runtime stack into a long-lived
service (ROADMAP open item 2):

:mod:`repro.service.registry`
    The shared problem registry — every kind's setup function, from
    which the CLI, the distributed runtime (:meth:`RunSpec.build`), the
    sweep engine and the job processes build both solver forms; the
    kind table it fills is :mod:`repro.spec`'s.
:mod:`repro.service.jobs`
    The job model and scheduler: a bounded pool of workers running
    queued :class:`~repro.spec.RunSpec` jobs, with
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

Every name is resolved on first use: the scheduler, server and client
(``asyncio``, ``http.client``) load no numerics — they read the
numpy-free :mod:`repro.spec` — and the registry, which does, is imported
only by what builds a problem (``mrlbm run``, a job process).
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "registry": ("ProblemKind", "build_distributed", "build_single",
                 "get_problem", "problem_kinds", "register_problem",
                 "sweep_kinds"),
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
