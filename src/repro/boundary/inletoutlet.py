"""Velocity inlets and pressure outlets on axis-aligned faces.

Two reconstruction methods are provided, selected by ``method``:

* ``"nebb"`` — non-equilibrium bounce-back (Zou & He style): only the
  populations pointing into the domain are replaced, using
  ``f_i = f_eq_i + (f_ibar - f_eq_ibar)``. Purely node-local, which is what
  the virtual-GPU kernels implement in shared memory.
* ``"regularized-fd"`` — the paper's inlet/outlet scheme (Latt et al. 2008,
  "straight velocity boundaries", finite-difference flavour): the *entire*
  population set of the boundary node is rebuilt as
  ``f = f_eq(rho, u) + w/(2 cs4) H2 : Pi_neq`` with
  ``Pi_neq = -2 rho cs2 tau S`` and the strain rate ``S`` evaluated with
  one-sided finite differences in the wall-normal direction (second order)
  and central differences tangentially.

Density at a velocity inlet follows the classical closed relation
``rho = (S_0 + 2 S_-)/(1 - u_n)`` where ``S_0``/``S_-`` sum the tangential
and outgoing populations and ``u_n`` is the inward normal velocity. The
pressure outlet inverts the same relation for ``u_n`` given ``rho``.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.equilibrium import equilibrium
from ..core.moments import macroscopic
from ..core.regularization import hermite_delta_second_order
from ..geometry import SOLID, Domain
from ..lattice import LatticeDescriptor
from .base import Boundary, Plane

__all__ = ["VelocityInlet", "PressureOutlet"]


def _classify(lat: LatticeDescriptor, plane: Plane) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split component indices by sign of ``c . n_inward`` on a face."""
    cn = lat.c[:, plane.axis] * plane.inward
    return np.where(cn > 0)[0], np.where(cn == 0)[0], np.where(cn < 0)[0]


def _plane_velocity(lat: LatticeDescriptor, value, plane_shape: tuple[int, ...]) -> np.ndarray:
    """Normalize a prescribed velocity to a ``(D, *plane_shape)`` array."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == (lat.d,):
        out = np.empty((lat.d, *plane_shape))
        out[:] = arr.reshape((lat.d,) + (1,) * len(plane_shape))
        return out
    if arr.shape == (lat.d, *plane_shape):
        return arr.copy()
    raise ValueError(
        f"velocity must have shape {(lat.d,)} or {(lat.d, *plane_shape)}, got {arr.shape}"
    )


class _FaceBoundary(Boundary):
    """Shared face bookkeeping for inlet/outlet boundaries."""

    def __init__(self, plane: Plane, method: str):
        if method not in ("nebb", "regularized-fd"):
            raise ValueError(f"unknown reconstruction method {method!r}")
        self.plane = plane
        self.method = method
        self.tau: float | None = None
        self._active: np.ndarray | None = None   # bool over plane shape
        self._unknown: np.ndarray | None = None
        self._tangential: np.ndarray | None = None
        self._known: np.ndarray | None = None
        self._shape: tuple[int, ...] | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float):
        """Resolve the face on ``domain`` and cache the component split."""
        if self.plane.axis >= domain.ndim:
            raise ValueError(
                f"plane axis {self.plane.axis} out of range for {domain.ndim}D domain"
            )
        if (self.method == "regularized-fd"
                and domain.shape[self.plane.axis] < 3):
            # The one-sided strain stencil reads the planes at offsets 1
            # and 2 from the face; on a thinner domain those indices
            # silently wrap around the periodic axis and corrupt the
            # reconstruction, so refuse at bind time.
            raise ValueError(
                f"the regularized-fd reconstruction needs at least 3 planes "
                f"along axis {self.plane.axis} (its one-sided finite "
                f"difference reads two interior planes), but the domain has "
                f"only {domain.shape[self.plane.axis]}; enlarge the domain "
                f"or use method='nebb'"
            )
        self.tau = float(tau)
        self._shape = domain.shape
        face = self.plane.face_index(domain.shape)
        self._active = domain.node_type[face] != SOLID
        self._unknown, self._tangential, self._known = _classify(lat, self.plane)
        return self

    def _depth(self) -> int:
        """Planes the reconstruction reads, the face's own included."""
        return 3 if self.method == "regularized-fd" else 1

    def slab_hooks(self, lat: LatticeDescriptor,
                   slabs: list[tuple[int, int]]) -> list | None:
        """A face of axis 0 belongs to the first or the last slab only.

        The hook is this boundary bound to the slab's own extent, so the
        face and the planes its stencil reads are found from the slab
        buffer's edge. A face of another axis crosses every slab — the
        finite-difference strain takes tangential differences along
        axis 0 over slab edges — and has no row extent.
        """
        a0, a1 = slabs[self.plane.side]
        if self.plane.axis != 0 or a1 - a0 < self._depth():
            return None
        local = copy.copy(self)
        local._shape = (a1 - a0, *self._shape[1:])
        hooks = [None] * len(slabs)
        hooks[self.plane.side] = lambda f_new, f_src: local.post_stream(
            lat, f_new[:, :a1 - a0], f_src)
        return hooks

    # -- helpers ------------------------------------------------------
    def _face_view(self, f: np.ndarray, offset: int = 0) -> np.ndarray:
        """(Q, *plane_shape) view of the distribution ``offset`` nodes in."""
        face = self.plane.face_index(self._shape, offset)
        return f[(slice(None), *face)]

    def _density_sums(self, lat: LatticeDescriptor, fslab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s0 = fslab[self._tangential].sum(axis=0)
        sm = fslab[self._known].sum(axis=0)
        return s0, sm

    def _assign_nebb(self, lat: LatticeDescriptor, fslab: np.ndarray,
                     rho: np.ndarray, u_b: np.ndarray) -> None:
        """Replace the unknown populations via non-equilibrium bounce-back."""
        feq = equilibrium(lat, rho, u_b)
        act = self._active
        for i in self._unknown:
            ibar = lat.opposite[i]
            vals = feq[i] + (fslab[ibar] - feq[ibar])
            fslab[i][act] = vals[act]

    def _assign_regularized(self, lat: LatticeDescriptor, f: np.ndarray,
                            rho: np.ndarray, u_b: np.ndarray) -> None:
        """Rebuild the full population set with the regularized-FD scheme."""
        strain_cols = self._fd_strain_cols(lat, f, u_b)
        pi_neq = -2.0 * rho * lat.cs2 * self.tau * strain_cols
        fnew = equilibrium(lat, rho, u_b) + hermite_delta_second_order(lat, pi_neq)
        fslab = self._face_view(f)
        act = self._active
        for i in range(lat.q):
            fslab[i][act] = fnew[i][act]

    def _fd_strain_cols(self, lat: LatticeDescriptor, f: np.ndarray,
                        u_b: np.ndarray) -> np.ndarray:
        """Strain-rate distinct columns at the face via finite differences.

        Normal direction: second-order one-sided stencil using the two
        interior neighbour planes; tangential directions: central
        differences of the boundary-plane velocity.
        """
        _, u1 = macroscopic(lat, self._face_view(f, 1))
        _, u2 = macroscopic(lat, self._face_view(f, 2))
        # d u / d x_axis with x measured along +axis.
        grad = np.zeros((lat.d, lat.d, *u_b.shape[1:]))  # grad[a, b] = d_a u_b
        grad[self.plane.axis] = self.plane.inward * (-3.0 * u_b + 4.0 * u1 - u2) / 2.0
        tang_axes = [a for a in range(lat.d) if a != self.plane.axis]
        for plane_pos, a in enumerate(tang_axes):
            if u_b.shape[1 + plane_pos] >= 2:
                grad[a] = np.gradient(u_b, axis=1 + plane_pos)
        cols = np.stack(
            [0.5 * (grad[a, b] + grad[b, a]) for a, b in lat.pair_tuples], axis=0
        )
        return cols


class VelocityInlet(_FaceBoundary):
    """Prescribed-velocity boundary on a domain face (paper's inlet).

    ``velocity`` is either a length-``D`` vector (uniform) or a
    ``(D, *plane_shape)`` profile (e.g. Poiseuille).
    """

    def __init__(self, plane: Plane, velocity, method: str = "regularized-fd"):
        super().__init__(plane, method)
        self._velocity_spec = velocity
        self.u_b: np.ndarray | None = None

    def bind(self, lat: LatticeDescriptor, domain: Domain, tau: float) -> "VelocityInlet":
        """Bind the face and normalize the prescribed velocity profile."""
        super().bind(lat, domain, tau)
        face = self.plane.face_index(domain.shape)
        plane_shape = domain.node_type[face].shape
        self.u_b = _plane_velocity(lat, self._velocity_spec, plane_shape)
        return self

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Impose the prescribed velocity on the freshly streamed face."""
        fslab = self._face_view(f_new)
        s0, sm = self._density_sums(lat, fslab)
        u_n = self.plane.inward * self.u_b[self.plane.axis]
        rho = (s0 + 2.0 * sm) / (1.0 - u_n)
        if self.method == "nebb":
            self._assign_nebb(lat, fslab, rho, self.u_b)
        else:
            self._assign_regularized(lat, f_new, rho, self.u_b)


class PressureOutlet(_FaceBoundary):
    """Prescribed-density boundary on a domain face (paper's outlet).

    The inward-normal velocity follows from the mass relation
    ``u_n = 1 - (S_0 + 2 S_-)/rho``; tangential components are either
    zero or copied from the first interior plane (``tangential``).
    """

    def __init__(self, plane: Plane, rho_out: float = 1.0,
                 method: str = "regularized-fd", tangential: str = "extrapolate"):
        super().__init__(plane, method)
        if tangential not in ("zero", "extrapolate"):
            raise ValueError(f"tangential must be 'zero' or 'extrapolate', got {tangential!r}")
        self.rho_out = float(rho_out)
        self.tangential = tangential

    def _depth(self) -> int:
        """The extrapolated tangential velocity reads one plane further in."""
        return max(super()._depth(),
                   2 if self.tangential == "extrapolate" else 1)

    def post_stream(self, lat: LatticeDescriptor, f_new: np.ndarray,
                    f_source: np.ndarray) -> None:
        """Impose the prescribed density on the freshly streamed face."""
        fslab = self._face_view(f_new)
        s0, sm = self._density_sums(lat, fslab)
        rho = np.full(s0.shape, self.rho_out)
        u_n = 1.0 - (s0 + 2.0 * sm) / self.rho_out
        u_b = np.zeros((lat.d, *s0.shape))
        u_b[self.plane.axis] = self.plane.inward * u_n
        if self.tangential == "extrapolate":
            _, u1 = macroscopic(lat, self._face_view(f_new, 1))
            for a in range(lat.d):
                if a != self.plane.axis:
                    u_b[a] = u1[a]
        if self.method == "nebb":
            self._assign_nebb(lat, fslab, rho, u_b)
        else:
            self._assign_regularized(lat, f_new, rho, u_b)
