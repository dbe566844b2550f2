"""Push-configuration ST kernel (collide, then scatter-stream).

The paper notes that the *pull* configuration "is considered the fastest
GPU implementation of the standard distribution representation"
(Section 3.1, citing Wellein 2006); this kernel implements the push
alternative so the claim can be tested in the traffic model: a push
kernel's streaming writes are shifted by ``c_i`` and therefore misaligned
with the 32-byte sectors, and — unlike the pull kernel's misaligned
*reads*, which the L2 absorbs — every written sector must drain to DRAM.

Boundary handling (channel mode) is fused the push way: wall-bound
components reflect into the node's own opposite slot at scatter time
(exactly like the MR column kernel), and the inlet/outlet reconstruction
runs as a post-scatter surface pass on the freshly streamed lattice.

State convention differs from :class:`STKernel`: ``f1`` holds the
*post-stream, post-boundary* (pre-collision) populations. After ``n``
steps, ``f1`` equals one stream+boundary application of the pull-solver
state after ``n`` steps (verified in the equivalence tests).
"""

from __future__ import annotations

import math

import numpy as np

from ...core.equilibrium import equilibrium
from ...core.moments import macroscopic
from ..device import GPUDevice
from ..launch import LaunchConfig, LaunchStats, validate_launch
from ..memory import GlobalArray, MemoryTracker
from .problem import KernelProblem, node_coords, node_index

__all__ = ["STPushKernel"]


class STPushKernel:
    """One-thread-per-node push kernel over two SoA distribution lattices."""

    name = "ST-push"

    def __init__(self, problem: KernelProblem, device: GPUDevice,
                 tracker: MemoryTracker | None = None, block_size: int = 256,
                 rho0: np.ndarray | float = 1.0, u0: np.ndarray | None = None):
        self.problem = problem
        self.device = device
        self.tracker = tracker if tracker is not None else MemoryTracker()
        lat = problem.lat
        self.n = problem.n_nodes
        self.shape = problem.shape
        self.config = LaunchConfig(
            blocks=math.ceil(self.n / block_size),
            threads_per_block=block_size,
        )
        validate_launch(device, self.config)

        rho = np.broadcast_to(np.asarray(rho0, dtype=np.float64), self.shape)
        u = np.zeros((lat.d, *self.shape)) if u0 is None else np.asarray(u0, float)
        feq = equilibrium(lat, rho, u)
        init = np.concatenate([feq[i].ravel(order="F") for i in range(lat.q)])
        self.f1 = GlobalArray("f1", lat.q * self.n, self.tracker)
        self.f2 = GlobalArray("f2", lat.q * self.n, self.tracker, init=init)
        self.time = 0
        # State convention: f1 holds the post-stream, post-boundary field.
        # Align the initial equilibrium accordingly (host-side, untracked):
        # stream it once and run the boundary pass, so that step() produces
        # the same trajectory as the pull implementations.
        from ...core.streaming import stream_push as _stream

        streamed = _stream(lat, feq)
        # Half-way bounce-back on the initial streamed field.
        mesh = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
        for i in range(lat.q):
            src = tuple(mesh[a] - lat.c[i, a] for a in range(lat.d))
            bb = problem.is_solid(src) & ~problem.is_solid(tuple(mesh))
            if bb.any():
                streamed[i][bb] = feq[lat.opposite[i]][bb]
        self.f2.data[:] = np.concatenate(
            [streamed[i].ravel(order="F") for i in range(lat.q)]
        )
        was_enabled = self.tracker.enabled
        self.tracker.enabled = False
        try:
            self._boundary_pass()
        finally:
            self.tracker.enabled = was_enabled
        self.f1, self.f2 = self.f2, self.f1

    def step(self) -> LaunchStats:
        lat = self.problem.lat
        bs = self.config.threads_per_block
        self.tracker.flush_cache()
        saved = self.tracker.report
        self.tracker.report = type(saved)()

        for b in range(self.config.blocks):
            idx = np.arange(b * bs, min((b + 1) * bs, self.n), dtype=np.int64)
            self._run_block(idx)
        self._boundary_pass()

        traffic = self.tracker.report
        self.tracker.report = saved + traffic
        self.f1, self.f2 = self.f2, self.f1
        self.time += 1
        return LaunchStats(
            config=self.config,
            traffic=traffic,
            n_nodes=self.n,
            kernel_name=f"ST-push/{lat.name}",
        )

    def _run_block(self, idx: np.ndarray) -> None:
        lat = self.problem.lat
        coords = node_coords(self.shape, idx)
        solid = self.problem.is_solid(coords)
        fluid = ~solid

        if solid.any():
            # Pin solid nodes at rest (their slots receive no scatters).
            sidx = idx[solid]
            for i in range(lat.q):
                self.f2.write(i * self.n + sidx, np.full(sidx.size, lat.w[i]))
        if not fluid.any():
            return

        fidx = idx[fluid]
        fcoords = tuple(c[fluid] for c in coords)
        f = np.empty((lat.q, fidx.size))
        for i in range(lat.q):
            f[i] = self.f1.read(i * self.n + fidx)      # coalesced reads

        rho, u = macroscopic(lat, f)
        feq = equilibrium(lat, rho, u)
        omega = 1.0 / self.problem.tau
        f_star = feq + (1.0 - omega) * (f - feq)

        # Scatter-stream with fused half-way bounce-back.
        for i in range(lat.q):
            dest = tuple(fcoords[a] + lat.c[i, a] for a in range(lat.d))
            dest_solid = self.problem.is_solid(dest)
            dest_ok = self.problem.in_domain(dest) & ~dest_solid
            if dest_ok.any():
                didx = node_index(self.shape, tuple(d[dest_ok] for d in dest))
                self.f2.write(i * self.n + didx, f_star[i, dest_ok])
            reflect = dest_solid
            if reflect.any():
                ibar = lat.opposite[i]
                self.f2.write(ibar * self.n + fidx[reflect],
                              f_star[i, reflect])

    def _boundary_pass(self) -> None:
        """Inlet/outlet reconstruction on the freshly streamed lattice."""
        if self.problem.mode != "channel":
            return
        lat = self.problem.lat
        nx = self.shape[0]
        for plane_x, apply_io in ((0, "inlet"), (nx - 1, "outlet")):
            cross_shapes = self.shape[1:]
            mesh = np.meshgrid(*[np.arange(s) for s in cross_shapes],
                               indexing="ij")
            cross = tuple(m.ravel() for m in mesh)
            coords = (np.full(cross[0].size, plane_x), *cross)
            fluid = ~self.problem.is_solid(coords)
            if not fluid.any():
                continue
            coords = tuple(c[fluid] for c in coords)
            nidx = node_index(self.shape, coords)
            f = np.empty((lat.q, nidx.size))
            for i in range(lat.q):
                f[i] = self.f2.read(i * self.n + nidx)
            if apply_io == "inlet":
                self.problem.apply_inlet_nebb(f, coords[1:])
            else:
                u_t = None
                if self.problem.outlet_tangential == "extrapolate":
                    ncoords = (coords[0] - 1, *coords[1:])
                    n2 = node_index(self.shape, ncoords)
                    f_nb = np.empty((lat.q, n2.size))
                    for i in range(lat.q):
                        f_nb[i] = self.f2.read(i * self.n + n2)
                    _, u_t = macroscopic(lat, f_nb)
                self.problem.apply_outlet_nebb(f, u_t)
            for i in range(lat.q):
                self.f2.write(i * self.n + nidx, f[i])

    # -- host accessors ---------------------------------------------------
    def distribution(self) -> np.ndarray:
        """Host copy: the post-stream, post-boundary (pre-collision) state."""
        lat = self.problem.lat
        flat = self.f1.read_untracked()
        return np.stack(
            [flat[i * self.n:(i + 1) * self.n].reshape(self.shape, order="F")
             for i in range(lat.q)]
        )

    def macroscopic_fields(self) -> tuple[np.ndarray, np.ndarray]:
        return macroscopic(self.problem.lat, self.distribution())

    @property
    def global_state_bytes(self) -> int:
        return self.f1.nbytes + self.f2.nbytes
