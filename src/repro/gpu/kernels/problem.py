"""Kernel-side problem description (the proxy-application setup).

The paper's CUDA/HIP proxy apps hardcode the rectangular channel — wall
planes, inlet profile and outlet density are compile-time knowledge of the
kernel, not data read from global memory. :class:`KernelProblem` plays that
role for the virtual-GPU kernels: it answers solidity queries analytically
(no memory traffic) and provides the inlet/outlet parameters plus the
initial condition.

Three modes are supported:

* ``"periodic"`` — fully periodic box, no boundaries (used for
  equivalence tests and Taylor-Green runs).
* ``"channel"`` — bounce-back walls on every non-``x`` axis extreme,
  velocity inlet at ``x = 0`` and pressure outlet at ``x = Nx-1``
  (non-equilibrium bounce-back reconstruction), exactly the geometry of
  :func:`repro.geometry.channel_2d` / ``channel_3d`` — the paper's
  evaluation workload.
* ``"masked"`` — arbitrary solid geometry on a periodic box (complex
  geometries after Herschlag et al. 2021, the paper's reference [4]);
  kernels additionally fetch a uint8 node-type grid so the geometry's
  bandwidth cost is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...lattice import LatticeDescriptor

__all__ = ["KernelProblem"]


@dataclass
class KernelProblem:
    """Everything a virtual-GPU LBM kernel knows at 'compile time'."""

    lat: LatticeDescriptor
    shape: tuple[int, ...]
    tau: float
    mode: str = "periodic"          # "periodic" | "channel" | "masked"
    u_inlet: np.ndarray | None = None            # (D, *cross_shape) at x=0
    rho_out: float = 1.0
    outlet_tangential: str = "zero"              # "zero" | "extrapolate"
    #: arbitrary solid geometry for "masked" mode (periodic wrap, half-way
    #: bounce-back on every fluid-solid link) — the complex-geometry
    #: workloads of Herschlag et al. 2021 (paper reference [4]). Kernels
    #: additionally fetch a uint8 node-type grid from global memory, so
    #: the geometry's bandwidth cost is part of the traffic measurement.
    solid_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("periodic", "channel", "masked"):
            raise ValueError(f"unknown problem mode {self.mode!r}")
        if self.mode == "masked":
            if self.solid_mask is None:
                raise ValueError("masked mode requires a solid_mask array")
            self.solid_mask = np.ascontiguousarray(self.solid_mask, dtype=bool)
            if self.solid_mask.shape != tuple(self.shape):
                raise ValueError(
                    f"solid_mask must have shape {self.shape}, "
                    f"got {self.solid_mask.shape}"
                )
        elif self.solid_mask is not None:
            raise ValueError("solid_mask is only meaningful in masked mode")
        if len(self.shape) != self.lat.d:
            raise ValueError(
                f"shape {self.shape} does not match lattice dimension {self.lat.d}"
            )
        if self.mode == "channel":
            cross = self.shape[1:]
            if self.u_inlet is None:
                self.u_inlet = np.zeros((self.lat.d, *cross))
            self.u_inlet = np.asarray(self.u_inlet, dtype=np.float64)
            if self.u_inlet.shape != (self.lat.d, *cross):
                raise ValueError(
                    f"u_inlet must have shape {(self.lat.d, *cross)}, "
                    f"got {self.u_inlet.shape}"
                )
            if self.outlet_tangential not in ("zero", "extrapolate"):
                raise ValueError(
                    f"outlet_tangential must be 'zero' or 'extrapolate', "
                    f"got {self.outlet_tangential!r}"
                )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axis_periodic(self, axis: int) -> bool:
        """Whether streaming wraps on this axis."""
        if self.mode in ("periodic", "masked"):
            return True
        # Channel: no axis wraps; x has inlet/outlet, others have walls.
        return False

    def is_solid(self, coords: tuple[np.ndarray, ...]) -> np.ndarray:
        """Vectorized solidity predicate (host-side; no memory traffic).

        Coordinates may lie outside the domain (halo queries); out-of-range
        positions on wall axes count as solid, and on the x axis as
        non-solid (they are inlet/outlet ghost positions, handled by the
        reconstruction instead of bounce-back). Masked mode wraps the
        coordinates and looks up the geometry grid; the *counted* fetch of
        that grid happens inside the kernels.
        """
        first = np.asarray(coords[0])
        if self.mode == "periodic":
            return np.zeros(first.shape, dtype=bool)
        if self.mode == "masked":
            wrapped = tuple(np.asarray(c) % self.shape[a]
                            for a, c in enumerate(coords))
            return self.solid_mask[wrapped]
        solid = np.zeros(first.shape, dtype=bool)
        for axis in range(1, self.lat.d):
            c = np.asarray(coords[axis])
            solid |= (c <= 0) | (c >= self.shape[axis] - 1)
        return solid

    def in_domain(self, coords: tuple[np.ndarray, ...]) -> np.ndarray:
        """Vectorized validity predicate with periodic wrap applied first."""
        first = np.asarray(coords[0])
        ok = np.ones(first.shape, dtype=bool)
        for axis in range(self.lat.d):
            if self.axis_periodic(axis):
                continue
            c = np.asarray(coords[axis])
            ok &= (c >= 0) & (c < self.shape[axis])
        return ok

    def node_type_grid(self) -> np.ndarray:
        """Node classification grid matching :mod:`repro.geometry` codes —
        used to build the equivalent reference-solver domain."""
        from ...geometry import INLET, OUTLET, SOLID

        nt = np.zeros(self.shape, dtype=np.int8)
        if self.mode == "masked":
            nt[self.solid_mask] = SOLID
        elif self.mode == "channel":
            coords = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
            nt[self.is_solid(tuple(coords))] = SOLID
            inlet = nt[0] != SOLID
            outlet = nt[-1] != SOLID
            nt[0][inlet] = INLET
            nt[-1][outlet] = OUTLET
        return nt

    # -- NEBB helpers shared by the ST and MR kernels -------------------
    def inlet_components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unknown, tangential, known) component index sets at the inlet
        (inward normal +x)."""
        cx = self.lat.c[:, 0]
        return np.where(cx > 0)[0], np.where(cx == 0)[0], np.where(cx < 0)[0]

    def outlet_components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unknown, tangential, known) at the outlet (inward normal -x)."""
        cx = self.lat.c[:, 0]
        return np.where(cx < 0)[0], np.where(cx == 0)[0], np.where(cx > 0)[0]

    def apply_inlet_nebb(self, f_nodes: np.ndarray, cross_idx: tuple[np.ndarray, ...]) -> None:
        """NEBB velocity reconstruction at inlet nodes.

        ``f_nodes`` is ``(Q, n)`` post-stream populations of inlet-plane
        nodes whose cross coordinates are ``cross_idx``; modified in place.
        """
        from ...core.equilibrium import equilibrium

        lat = self.lat
        unknown, tangential, known = self.inlet_components()
        u_b = np.stack([self.u_inlet[a][cross_idx] for a in range(lat.d)])
        s0 = f_nodes[tangential].sum(axis=0)
        sm = f_nodes[known].sum(axis=0)
        rho = (s0 + 2.0 * sm) / (1.0 - u_b[0])
        feq = equilibrium(lat, rho, u_b)
        for i in unknown:
            ibar = lat.opposite[i]
            f_nodes[i] = feq[i] + (f_nodes[ibar] - feq[ibar])

    def apply_outlet_nebb(self, f_nodes: np.ndarray,
                          u_tangential: np.ndarray | None = None) -> None:
        """NEBB pressure reconstruction at outlet nodes (in place).

        ``u_tangential`` optionally supplies the tangential velocity
        (``(D, n)``; the normal component is ignored) for the
        'extrapolate' mode; ``None`` means zero tangential velocity.
        """
        from ...core.equilibrium import equilibrium

        lat = self.lat
        unknown, tangential, known = self.outlet_components()
        s0 = f_nodes[tangential].sum(axis=0)
        sm = f_nodes[known].sum(axis=0)
        u_n = 1.0 - (s0 + 2.0 * sm) / self.rho_out   # inward normal is -x
        u_b = np.zeros((lat.d, f_nodes.shape[1]))
        u_b[0] = -u_n
        if u_tangential is not None:
            for a in range(1, lat.d):
                u_b[a] = u_tangential[a]
        rho = np.full(f_nodes.shape[1], self.rho_out)
        feq = equilibrium(lat, rho, u_b)
        for i in unknown:
            ibar = lat.opposite[i]
            f_nodes[i] = feq[i] + (f_nodes[ibar] - feq[ibar])


def node_coords(shape: tuple[int, ...],
                idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coordinates of the linear node indices ``idx`` (axis 0 fastest,
    the kernels' column-major node order)."""
    coords = []
    for extent in shape:
        coords.append(idx % extent)
        idx = idx // extent
    return tuple(coords)


def node_index(shape: tuple[int, ...],
               coords: tuple[np.ndarray, ...]) -> np.ndarray:
    """Linear node index of ``coords``, each wrapped periodically
    (the inverse of :func:`node_coords`)."""
    idx = np.zeros(np.shape(coords[0]), dtype=np.int64)
    stride = 1
    for axis, extent in enumerate(shape):
        idx = idx + (coords[axis] % extent) * stride
        stride *= extent
    return idx
