"""The slab-decomposed names of the registered problems.

Every problem is defined once, in :mod:`repro.service.registry`; these
are :func:`~repro.service.registry.build_distributed` with the kind
filled in (so defaults are the kind's distributed ones). The registry
sits above this package (it imports the slab solvers), so they reach it
at call time.
"""

from __future__ import annotations

from ..lattice import LatticeDescriptor
from .decomposition import DistributedSolver

__all__ = ["distributed_channel_problem", "distributed_periodic_problem",
           "distributed_forced_channel_problem",
           "distributed_cylinder_problem", "distributed_porous_problem"]


def _distributed(kind: str):
    """:func:`~repro.service.registry.build_distributed` under a public name."""
    def problem(scheme: str, lattice: str | LatticeDescriptor,
                shape: tuple[int, ...], n_ranks: int, tau: float = 0.8,
                **options) -> DistributedSolver:
        from ..service.registry import build_distributed

        return build_distributed(kind, scheme, lattice, shape, n_ranks,
                                 tau=tau, **options)

    problem.__doc__ = (
        f"The ``{kind}`` kind cut into ``n_ranks`` streamwise slabs; "
        f"``options`` are that kind's plus ``accel``/``st_exchange`` (see "
        f":mod:`repro.service.registry`).")
    return problem


distributed_channel_problem = _distributed("channel")
distributed_forced_channel_problem = _distributed("forced-channel")
distributed_cylinder_problem = _distributed("cylinder")
distributed_porous_problem = _distributed("porous")
distributed_periodic_problem = _distributed("periodic")
