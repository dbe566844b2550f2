"""MR — moment-representation solvers (projective and recursive).

Reference implementations of the paper's moment representation (Section
3.2, Algorithm 2) at the *algorithmic* level: the persistent simulation
state is only the M-vector field (6 values per node in 2D, 10 in 3D), and
each step performs

1. collision in moment space (Eq. 10, plus Eqs. 12-13 for MR-R),
2. mapping to distribution space (Eq. 11 / Eq. 14),
3. exact streaming (Eq. 7) and boundary conditions,
4. re-projection to moments (Eqs. 1-3) — the only data that persists.

This matches the *push* configuration of Algorithm 2. The distribution
field here is a full temporary array; the GPU realization in
:mod:`repro.gpu` keeps it in per-column shared memory instead, which is the
paper's central optimization, and is tested to produce identical states.
"""

from __future__ import annotations

import numpy as np

from ..core.collision import collide_moments_projective, collide_moments_recursive
from ..core.equilibrium import equilibrium_moments
from ..core.moments import f_from_moments, moments_from_f, velocity_from_moments
from ..core.streaming import stream_push
from .base import Solver, _dense_state

__all__ = ["MRPSolver", "MRRSolver"]


class _MomentSolver(Solver):
    """Shared state handling for the two MR schemes."""

    m = _dense_state("_m", "The moment field ``(M, *grid)``")
    _slot = "_m"

    def _initialize(self, rho: np.ndarray, u: np.ndarray) -> None:
        """Set the moment field to the equilibrium of ``(rho, u)``."""
        self._m = equilibrium_moments(self.lat, rho, u)
        # Streaming target of the reference step; every fast backend's
        # core owns its own distribution buffers.
        self._f_scratch = (np.empty((self.lat.q, *self.domain.shape))
                           if self.backend == "reference" else None)

    def _rest(self) -> np.ndarray:
        """The rest moments ``(1, 0, ..., 0)`` (solid nodes of ``m``)."""
        rest = np.zeros(self.lat.n_moments)
        rest[0] = 1.0
        return rest

    def _post_collision_f(self) -> np.ndarray:
        """Post-collision distribution reconstructed from moments."""
        raise NotImplementedError

    def _step_reference(self) -> None:
        """One MR step: collide in m-space, push-stream, re-project."""
        tel = self.telemetry
        with tel.phase("collide"):
            f_star = self._post_collision_f()
        with tel.phase("stream"):
            f_new = stream_push(self.lat, f_star, out=self._f_scratch)
        with tel.phase("boundary"):
            self._apply_post_stream(f_new, f_star)
        with tel.phase("macroscopic"):
            self.m = moments_from_f(self.lat, f_new)
            # Pin solid nodes at rest so their (physically meaningless)
            # moments stay finite.
            solid = self.domain.solid_mask
            if solid.any():
                self.m[:, solid] = 0.0
                self.m[0, solid] = 1.0
        # f_star becomes the scratch buffer for the next step.
        self._f_scratch = f_star

    def macroscopic(self, planes: int | slice = slice(None)
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, u)`` straight from the moment field (no projection).

        ``planes`` (an axis-0 index or slice) limits it to those planes:
        how a distributed rank gathers without a slab-sized temporary.
        """
        m = self.m[:, planes]
        if self.force is None:
            return m[0], velocity_from_moments(self.lat, m)
        from ..core.forcing import half_force_velocity

        rho = m[0]
        j = m[1:1 + self.lat.d]
        return rho, half_force_velocity(self.lat, rho, j,
                                        self.force[:, planes])

    @property
    def state_values_per_node(self) -> int:
        """``2M`` doubles per node (paper Table 2 footprint model)."""
        return 2 * self.lat.n_moments


class MRPSolver(_MomentSolver):
    """Moment representation with projective regularization (MR-P).

    Collision: Eq. 10 in moment space; reconstruction: Eq. 11 (a single
    linear map, precomputed on the lattice descriptor). Body forces use
    the projected Guo coupling of :mod:`repro.core.forcing`. An optional
    ``tau_bulk`` relaxes the trace of ``Pi_neq`` at its own rate (bulk
    viscosity control; see
    :class:`repro.core.collision.ProjectiveRegularizedCollision`).
    """

    name = "MR-P"
    #: Fast-path opt-in (see :mod:`repro.accel`).
    accel_caps = {"family": "mr", "scheme": "MR-P"}

    def __init__(self, *args, tau_bulk: float | None = None, **kwargs):
        self.tau_bulk = tau_bulk
        super().__init__(*args, **kwargs)

    def _post_collision_f(self) -> np.ndarray:
        """Eq. 10 collision then Eq. 11 reconstruction to f-space."""
        m_star = collide_moments_projective(self.lat, self.m, self.tau,
                                            force=self.force,
                                            tau_bulk=self.tau_bulk)
        return f_from_moments(self.lat, m_star)


class MRRSolver(_MomentSolver):
    """Moment representation with recursive regularization (MR-R).

    Collision: Eqs. 10 + 12-13 with the Malaspinas recursions for the
    non-equilibrium third/fourth-order coefficients; reconstruction: Eq. 14.
    Body forces use the projected Guo coupling.
    """

    name = "MR-R"
    #: Fast-path opt-in (see :mod:`repro.accel`).
    accel_caps = {"family": "mr", "scheme": "MR-R"}

    def _post_collision_f(self) -> np.ndarray:
        """Eqs. 10 + 12-13 collision then Eq. 14 reconstruction."""
        return collide_moments_recursive(self.lat, self.m, self.tau,
                                         force=self.force)
