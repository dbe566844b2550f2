"""ST — the standard two-lattice distribution-representation solver.

Reference implementation of paper Algorithm 1: *pull* configuration
(stream, then collide), two distribution lattices ``f1``/``f2`` swapped
each step, BGK collision. This is the baseline every MR result is compared
against, and the ground truth for the virtual-GPU ST kernel.
"""

from __future__ import annotations

import numpy as np

from ..core.collision import BGKCollision, CollisionOperator
from ..core.equilibrium import equilibrium
from ..core.moments import macroscopic
from ..core.streaming import stream_pull
from .base import Solver, _dense_state

__all__ = ["STSolver"]


class STSolver(Solver):
    """Standard distribution-representation LBM (Algorithm 1).

    ``collision`` may be overridden (e.g. with a regularized operator) to
    study regularization *without* the moment-representation propagation
    pattern; the default is BGK as in the paper's ST baseline.
    """

    name = "ST"
    #: Fast-path opt-in (see :mod:`repro.accel`). The kernels hard-code
    #: plain BGK; non-BGK collisions are caught by ``validate_backend``.
    accel_caps = {"family": "st"}

    f = _dense_state("_f", "The population lattice ``(Q, *grid)``")
    _slot = "_f"

    def __init__(self, *args, collision: CollisionOperator | None = None, **kwargs):
        self._collision_override = collision
        super().__init__(*args, **kwargs)
        self.collision = collision if collision is not None else BGKCollision(self.tau)
        if abs(self.collision.tau - self.tau) > 1e-12:
            raise ValueError("collision operator tau must match solver tau")
        from ..core.collision import TRTCollision

        if self._force is not None and not isinstance(
                self.collision, (BGKCollision, TRTCollision)):
            raise ValueError(
                "body forcing in the ST solver is implemented for the BGK "
                "(classical Guo) and TRT (parity-split Guo) collisions; "
                "use MR-P/MR-R for regularized forced collisions"
            )
        # The base constructor validated before ``collision`` existed;
        # re-check now that the operator is known (still construction
        # time, so non-BGK + fast backend fails here, not mid-run).
        from ..accel import validate_backend

        validate_backend(self)

    def _initialize(self, rho: np.ndarray, u: np.ndarray) -> None:
        """Fill the lattice(s) with the equilibrium of ``(rho, u)``."""
        self._f = equilibrium(self.lat, rho, u)   # current (post-collision)
        # The reference step double-buffers through this lattice; every
        # fast backend's core owns whatever scratch it needs.
        self._f_streamed = (np.empty_like(self._f)
                            if self.backend == "reference" else None)

    def _rest(self) -> np.ndarray:
        """The rest equilibrium ``w_i`` (solid nodes of ``f``)."""
        return self.lat.w

    def _step_reference(self) -> None:
        """One Algorithm 1 step: pull-stream, boundaries, collide, swap."""
        tel = self.telemetry
        # Streaming (pull): gather post-collision values from neighbours.
        with tel.phase("stream"):
            stream_pull(self.lat, self.f, out=self._f_streamed)
        with tel.phase("boundary"):
            self._apply_post_stream(self._f_streamed, self.f)
        # Collision into the second lattice (reuse the old buffer).
        with tel.phase("collide"):
            if self.force is None:
                f_star = self.collision(self.lat, self._f_streamed)
            else:
                f_star = self._forced_collision(self._f_streamed)
            # Keep solid nodes pinned at rest equilibrium so garbage can
            # never propagate out of unused regions. Done before the
            # post-collide hook so full-way bounce-back may still overwrite
            # solid nodes.
            solid = self.domain.solid_mask
            if solid.any():
                f_star[:, solid] = self.lat.w[:, None]
        with tel.phase("boundary"):
            self._apply_post_collide(f_star, self._f_streamed)
        self.f, self._f_streamed = f_star, self.f

    def _forced_collision(self, f: np.ndarray) -> np.ndarray:
        """Guo forcing with the half-force velocity shift.

        BGK applies the classical ``(1 - 1/(2 tau))`` prefactor; TRT splits
        the raw source into even/odd parity halves and scales each with its
        own ``1 - omega/2``.
        """
        from ..core.collision import TRTCollision
        from ..core.forcing import guo_source

        lat = self.lat
        rho, u = self._density_velocity(f)
        feq = equilibrium(lat, rho, u)
        if isinstance(self.collision, TRTCollision):
            op = self.collision
            opp = lat.opposite
            neq = f - feq
            neq_plus = 0.5 * (neq + neq[opp])
            neq_minus = 0.5 * (neq - neq[opp])
            s_raw = guo_source(lat, u, self.force, tau=None)
            s_plus = 0.5 * (s_raw + s_raw[opp])
            s_minus = 0.5 * (s_raw - s_raw[opp])
            return (f - op.omega * neq_plus - op.omega_minus * neq_minus
                    + (1.0 - 0.5 * op.omega) * s_plus
                    + (1.0 - 0.5 * op.omega_minus) * s_minus)
        omega = 1.0 / self.tau
        return (f + omega * (feq - f)
                + guo_source(lat, u, self.force, self.tau))

    def _density_velocity(self, f: np.ndarray,
                          planes: int | slice = slice(None)
                          ) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, u)`` of the lattice ``f``, the axis-0 ``planes`` of the
        grid (half-force aware)."""
        if self.force is None:
            return macroscopic(self.lat, f)
        from ..core.forcing import half_force_velocity

        rho = f.sum(axis=0)
        j = np.einsum("qa,q...->a...", self.lat.c.astype(np.float64), f)
        return rho, half_force_velocity(self.lat, rho, j,
                                        self.force[:, planes])

    def macroscopic(self, planes: int | slice = slice(None)
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rho, u)`` of the current lattice (half-force aware).

        ``planes`` (an axis-0 index or slice) limits it to those planes:
        how a distributed rank gathers without a slab-sized temporary.
        """
        return self._density_velocity(self.f[:, planes], planes)

    @property
    def state_values_per_node(self) -> int:
        """``2Q`` doubles per node for the two-lattice scheme, ``Q`` on the
        single-lattice and compact-state backends (whose cores say so —
        see docs/ALGORITHMS.md for the footprint/traffic models)."""
        if self.backend == "reference":
            return 2 * self.lat.q
        return self._fast_stepper().core.state_lattices * self.lat.q
