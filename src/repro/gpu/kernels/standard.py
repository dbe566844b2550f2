"""Virtual-GPU kernel for the ST propagation pattern (paper Algorithm 1).

Pull configuration: each thread owns one lattice node, gathers the Q
populations from its neighbours' post-collision lattice ``f1``, applies
boundary fixes, computes the macroscopic moments, collides (BGK) and writes
the Q post-collision populations to the second lattice ``f2``. Both
lattices use the SoA layout (component-major, x fastest) for coalesced
access; the thread grid is 1D with one thread per node, as in the paper.

All global-memory accesses go through :class:`repro.gpu.memory.GlobalArray`
so the launch reports profiler-style traffic (bytes and 32B sectors):
``2 Q`` doubles per node plus the small boundary extras — the ST row of
paper Table 2.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.equilibrium import equilibrium
from ...core.moments import macroscopic
from ...obs.telemetry import NULL_TELEMETRY
from ..device import GPUDevice
from ..launch import LaunchConfig, LaunchStats, publish_launch, validate_launch
from ..memory import GlobalArray, MemoryTracker
from .problem import KernelProblem, node_coords, node_index

__all__ = ["STKernel"]


class STKernel:
    """One-thread-per-node pull kernel over two SoA distribution lattices."""

    name = "ST"

    def __init__(self, problem: KernelProblem, device: GPUDevice,
                 tracker: MemoryTracker | None = None, block_size: int = 256,
                 rho0: np.ndarray | float = 1.0, u0: np.ndarray | None = None,
                 force: np.ndarray | None = None, telemetry=None):
        self.problem = problem
        self.device = device
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        lat = problem.lat
        self.n = problem.n_nodes
        self.shape = problem.shape
        # Optional constant body force (Guo coupling) — a compile-time
        # constant of the kernel, so it adds flops but no traffic.
        if force is None:
            self.force_flat = None
        else:
            from ...core.forcing import normalize_force

            field = normalize_force(lat, force, self.shape)
            mesh = np.meshgrid(*[np.arange(s) for s in self.shape],
                               indexing="ij")
            field[:, problem.is_solid(tuple(mesh))] = 0.0
            self.force_flat = np.stack(
                [field[a].ravel(order="F") for a in range(lat.d)]
            )
        self.config = LaunchConfig(
            blocks=math.ceil(self.n / block_size),
            threads_per_block=block_size,
            shared_bytes_per_block=0,
        )
        validate_launch(device, self.config)

        rho = np.array(np.broadcast_to(np.asarray(rho0, dtype=np.float64),
                                       self.shape))
        u = np.zeros((lat.d, *self.shape)) if u0 is None else np.array(u0, float)
        mesh = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
        solid0 = problem.is_solid(tuple(mesh))
        rho[solid0] = 1.0
        u[:, solid0] = 0.0
        feq = equilibrium(lat, rho, u)
        init = np.concatenate([feq[i].ravel(order="F") for i in range(lat.q)])
        # Both lattices start initialized so solid nodes never need to be
        # rewritten: solid threads are masked out of the update entirely,
        # as real complex-geometry kernels do.
        self.f1 = GlobalArray("f1", lat.q * self.n, self.tracker, init=init)
        self.f2 = GlobalArray("f2", lat.q * self.n, self.tracker, init=init)
        # Complex geometries carry a uint8 node-type grid in global memory
        # whose per-step fetch is part of the measured traffic (paper
        # reference [4]).
        self.node_types: GlobalArray | None = None
        if problem.mode == "masked":
            self.node_types = GlobalArray(
                "node_type", self.n, self.tracker,
                init=problem.solid_mask.ravel(order="F").astype(np.float64),
                itemsize=1,
            )
        self.time = 0

    # ------------------------------------------------------------------
    def _post_stream_at(self, coords: tuple[np.ndarray, ...],
                        self_idx: np.ndarray) -> np.ndarray:
        """Gather the post-stream populations for a set of fluid nodes,
        including the bounce-back link fixes (shared by the bulk update and
        the outlet-neighbour recomputation)."""
        lat = self.problem.lat
        n_nodes = self_idx.size
        f = np.zeros((lat.q, n_nodes))
        for i in range(lat.q):
            src = tuple(coords[a] - lat.c[i, a] for a in range(lat.d))
            bb = self.problem.is_solid(src)
            plain = ~bb
            if plain.any():
                src_idx = node_index(self.shape, tuple(s[plain] for s in src))
                f[i, plain] = self.f1.read(i * self.n + src_idx)
            if bb.any():
                # Link from a wall: take the node's own opposite
                # post-collision population (half-way bounce-back).
                ibar = lat.opposite[i]
                f[i, bb] = self.f1.read(ibar * self.n + self_idx[bb])
        return f

    def step(self) -> LaunchStats:
        """One timestep = one kernel launch over all blocks."""
        lat = self.problem.lat
        bs = self.config.threads_per_block
        self.tracker.flush_cache()   # no inter-step reuse at paper scales
        start_traffic = self.tracker.report
        self.tracker.report = type(start_traffic)()

        with self.telemetry.phase("gpu.step"):
            for b in range(self.config.blocks):
                idx = np.arange(b * bs, min((b + 1) * bs, self.n),
                                dtype=np.int64)
                self._run_block(idx)

        traffic = self.tracker.report
        self.tracker.report = start_traffic + traffic
        self.f1, self.f2 = self.f2, self.f1
        self.time += 1
        stats = LaunchStats(
            config=self.config,
            traffic=traffic,
            n_nodes=self.n,
            kernel_name=f"ST/{lat.name}",
        )
        publish_launch(self.telemetry, stats)
        return stats

    def _run_block(self, idx: np.ndarray) -> None:
        lat = self.problem.lat
        coords = node_coords(self.shape, idx)
        if self.node_types is not None:
            # Counted fetch of the geometry (each thread reads its type).
            solid = self.node_types.read(idx) > 0.5
        else:
            solid = self.problem.is_solid(coords)
        fluid = ~solid
        if not fluid.any():
            return                        # fully solid block: threads exit

        fcoords = tuple(c[fluid] for c in coords)
        fidx = idx[fluid]
        f = self._post_stream_at(fcoords, fidx)

        if self.problem.mode == "channel":
            self._apply_channel_io(f, fcoords)

        omega = 1.0 / self.problem.tau
        if self.force_flat is None:
            rho, u = macroscopic(lat, f)
            feq = equilibrium(lat, rho, u)
            out = feq + (1.0 - omega) * (f - feq)
        else:
            from ...core.forcing import guo_source, half_force_velocity

            force = self.force_flat[:, fidx]
            rho = f.sum(axis=0)
            j = np.einsum("qa,q...->a...", lat.c.astype(np.float64), f)
            u = half_force_velocity(lat, rho, j, force)
            feq = equilibrium(lat, rho, u)
            out = (feq + (1.0 - omega) * (f - feq)
                   + guo_source(lat, u, force, self.problem.tau))

        # Solid threads are masked out: their slots keep the rest-state
        # values both lattices were initialized with.
        for i in range(lat.q):
            self.f2.write(i * self.n + fidx, out[i])

    def _apply_channel_io(self, f: np.ndarray, coords: tuple[np.ndarray, ...]) -> None:
        """Inlet/outlet NEBB reconstruction for the channel proxy app."""
        x = coords[0]
        nx = self.shape[0]
        inlet = x == 0
        if inlet.any():
            cross = tuple(c[inlet] for c in coords[1:])
            f_in = f[:, inlet]
            self.problem.apply_inlet_nebb(f_in, cross)
            f[:, inlet] = f_in
        outlet = x == nx - 1
        if outlet.any():
            f_out = f[:, outlet]
            u_t = None
            if self.problem.outlet_tangential == "extrapolate":
                # Recompute the first interior plane's post-stream state to
                # extrapolate the tangential velocity (extra gathers,
                # counted as real traffic).
                ncoords = (x[outlet] - 1, *[c[outlet] for c in coords[1:]])
                nidx = node_index(self.shape, ncoords)
                f_nb = self._post_stream_at(ncoords, nidx)
                _, u_t = macroscopic(self.problem.lat, f_nb)
            self.problem.apply_outlet_nebb(f_out, u_t)
            f[:, outlet] = f_out

    # ------------------------------------------------------------------
    def distribution(self) -> np.ndarray:
        """Host copy of the current lattice as a ``(Q, *shape)`` field."""
        lat = self.problem.lat
        flat = self.f1.read_untracked()
        return np.stack(
            [flat[i * self.n:(i + 1) * self.n].reshape(self.shape, order="F")
             for i in range(lat.q)]
        )

    def macroscopic_fields(self) -> tuple[np.ndarray, np.ndarray]:
        lat = self.problem.lat
        f = self.distribution()
        if self.force_flat is None:
            return macroscopic(lat, f)
        from ...core.forcing import half_force_velocity

        rho = f.sum(axis=0)
        j = np.einsum("qa,q...->a...", lat.c.astype(np.float64), f)
        force = np.stack([self.force_flat[a].reshape(self.shape, order="F")
                          for a in range(lat.d)])
        return rho, half_force_velocity(lat, rho, j, force)

    @property
    def global_state_bytes(self) -> int:
        """Device-resident state (both lattices) — the paper's footprint
        model for ST."""
        return self.f1.nbytes + self.f2.nbytes
