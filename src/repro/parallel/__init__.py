"""Distributed-memory domain decomposition and execution backends.

Two interchangeable backends share one slab decomposition and one halo
protocol (see ``docs/PARALLEL.md``):

* **emulated** — every rank stepped sequentially in-process
  (:class:`DistributedSolver`), deterministic and
  dependency-free: the accounting and correctness oracle;
* **process** — every rank a forked OS process; halo faces and the
  gathered ``(rho, u)`` travel through anonymous shared mappings the
  ranks inherit, with barrier-synchronized halo exchanges
  (:func:`run_process` / :class:`ProcessRuntime`).

In both, a rank *is* the single-domain solver of the scheme
(:mod:`repro.solver`) on its ghosted slab: this package owns the
decomposition, the halo codec and the exchange, and contains no physics
— every construction-time check of ``Solver`` therefore holds per rank.
Multi-speed lattices are refused at construction (the halo is one node
wide).

The process backend is fault tolerant: cohorts write coordinated
distributed checkpoints, restart from them (``RunSpec.resume_from`` /
``mrlbm run --resume``, including with a different rank count), and the
supervisor retries failed cohorts from the last checkpoint. Faults for
testing the machinery are injected deterministically via
:class:`FaultSpec` (see :mod:`repro.parallel.faults`).
"""

from .._lazy import lazy_exports

# Resolved on first use: a job server imports repro.parallel.blas without
# the decomposition's numpy.
__getattr__ = lazy_exports(__name__, {
    "decomposition": ("CommunicationReport", "SlabDecomposition",
                      "DistributedSolver"),
    "faults": ("FAULT_KINDS", "FaultInjected", "FaultSpec",
               "normalize_fault"),
    "runtime": ("ParallelRuntimeError", "ProcessRunResult", "ProcessRuntime",
                "RunSpec", "WorkerFailure", "run_process"),
})

__all__ = [
    "CommunicationReport",
    "SlabDecomposition",
    "DistributedSolver",
    "RunSpec",
    "ProcessRuntime",
    "ProcessRunResult",
    "run_process",
    "ParallelRuntimeError",
    "WorkerFailure",
    "FaultSpec",
    "FaultInjected",
    "FAULT_KINDS",
    "normalize_fault",
]
