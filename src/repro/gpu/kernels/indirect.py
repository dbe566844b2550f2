"""Indirect-addressing ST kernel for sparse/complex geometries.

Direct (dense) addressing allocates and streams every lattice node, so
porous geometries waste bandwidth proportional to the solid fraction
(see `benchmarks/test_complex_geometry.py`). The alternative analysed by
Herschlag et al. (2021 — the paper's reference [4]) stores only the fluid
nodes, compacted into a list, and resolves streaming through a
precomputed adjacency table: one 32-bit index per (node, direction)
pointing at the pull source *slot* in the distribution array — with
fluid-solid links folded in by pointing the entry at the node's own
opposite-component slot (half-way bounce-back needs no branch at all).

Per-fluid-node traffic is therefore porosity-independent: ``2 Q x 8`` B
of populations plus ``4 Q`` B of adjacency reads (180 B for D2Q9, 380 B
for D3Q19), which loses to dense addressing on open domains but wins
below a crossover fluid fraction — the trade-off quantified in the E16
benchmark.

Periodic and masked problems only (the adjacency table encodes the
geometry; inlet/outlet reconstructions are dense-mode features).
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

__all__ = ["STIndirectKernel"]


class STIndirectKernel:
    """Fluid-list ST kernel with a flat adjacency table."""

    name = "ST-indirect"

    def __init__(self, problem: KernelProblem, device: GPUDevice,
                 tracker: MemoryTracker | None = None, block_size: int = 256,
                 rho0: np.ndarray | float = 1.0, u0: np.ndarray | None = None):
        if problem.mode not in ("periodic", "masked"):
            raise ValueError(
                "the indirect kernel supports periodic and masked problems"
            )
        self.problem = problem
        self.device = device
        self.tracker = tracker if tracker is not None else MemoryTracker()
        lat = problem.lat
        self.shape = problem.shape

        # Fluid compaction: grid -> slot mapping.
        mesh = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
        solid = problem.is_solid(tuple(mesh))
        self.fluid_mask = ~solid
        self.n_fluid = int(self.fluid_mask.sum())
        if self.n_fluid == 0:
            raise ValueError("geometry has no fluid nodes")
        flat_fluid = self.fluid_mask.ravel(order="F")
        self.slot_of_node = np.full(flat_fluid.size, -1, dtype=np.int64)
        self.slot_of_node[flat_fluid] = np.arange(self.n_fluid)
        self.node_of_slot = np.nonzero(flat_fluid)[0]

        self.config = LaunchConfig(
            blocks=math.ceil(self.n_fluid / block_size),
            threads_per_block=block_size,
        )
        validate_launch(device, self.config)

        # Adjacency: flat index into the (Q * n_fluid) distribution array
        # of the value that becomes f_i(x) after streaming. Fluid-solid
        # links point at the node's own opposite slot (fused bounce-back).
        coords = node_coords(self.shape, self.node_of_slot)
        adj = np.empty((lat.q, self.n_fluid), dtype=np.int64)
        for i in range(lat.q):
            src = tuple((coords[a] - lat.c[i, a]) % self.shape[a]
                        for a in range(lat.d))
            src_flat = node_index(self.shape, src)
            src_slot = self.slot_of_node[src_flat]
            from_solid = src_slot < 0
            regular = i * self.n_fluid + src_slot
            bounce = lat.opposite[i] * self.n_fluid + np.arange(self.n_fluid)
            adj[i] = np.where(from_solid, bounce, regular)
        self.adjacency = GlobalArray(
            "adjacency", lat.q * self.n_fluid, self.tracker,
            init=adj.ravel(), itemsize=4,
        )

        # Distributions on the fluid list only.
        rho = np.array(np.broadcast_to(np.asarray(rho0, dtype=np.float64),
                                       self.shape))
        u = np.zeros((lat.d, *self.shape)) if u0 is None else np.array(u0, float)
        rho[solid] = 1.0
        u[:, solid] = 0.0
        feq = equilibrium(lat, rho, u)
        init = np.concatenate(
            [feq[i].ravel(order="F")[self.node_of_slot] for i in range(lat.q)]
        )
        self.f1 = GlobalArray("f1", lat.q * self.n_fluid, self.tracker,
                              init=init)
        self.f2 = GlobalArray("f2", lat.q * self.n_fluid, self.tracker,
                              init=init)
        self.time = 0

    # ------------------------------------------------------------------
    def step(self) -> LaunchStats:
        lat = self.problem.lat
        bs = self.config.threads_per_block
        self.tracker.flush_cache()
        saved = self.tracker.report
        self.tracker.report = type(saved)()

        for b in range(self.config.blocks):
            slots = np.arange(b * bs, min((b + 1) * bs, self.n_fluid),
                              dtype=np.int64)
            self._run_block(slots)

        traffic = self.tracker.report
        self.tracker.report = saved + traffic
        self.f1, self.f2 = self.f2, self.f1
        self.time += 1
        return LaunchStats(
            config=self.config,
            traffic=traffic,
            n_nodes=self.n_fluid,
            kernel_name=f"ST-indirect/{lat.name}",
        )

    def _run_block(self, slots: np.ndarray) -> None:
        lat = self.problem.lat
        f = np.empty((lat.q, slots.size))
        for i in range(lat.q):
            # 4-byte adjacency fetch, then the (scattered) population pull.
            src = self.adjacency.read(i * self.n_fluid + slots).astype(np.int64)
            f[i] = self.f1.read(src)
        rho, u = macroscopic(lat, f)
        feq = equilibrium(lat, rho, u)
        omega = 1.0 / self.problem.tau
        out = feq + (1.0 - omega) * (f - feq)
        for i in range(lat.q):
            self.f2.write(i * self.n_fluid + slots, out[i])

    # ------------------------------------------------------------------
    def distribution(self) -> np.ndarray:
        """Dense host copy (rest values at solids), for comparisons."""
        lat = self.problem.lat
        flat = self.f1.read_untracked()
        dense = np.empty((lat.q, int(np.prod(self.shape))))
        dense[:] = lat.w[:, None]
        for i in range(lat.q):
            dense[i, self.node_of_slot] = flat[i * self.n_fluid:
                                               (i + 1) * self.n_fluid]
        return np.stack(
            [dense[i].reshape(self.shape, order="F") for i in range(lat.q)]
        )

    def macroscopic_fields(self) -> tuple[np.ndarray, np.ndarray]:
        return macroscopic(self.problem.lat, self.distribution())

    @property
    def global_state_bytes(self) -> int:
        """Fluid-only lattices + the 4-byte adjacency table."""
        return self.f1.nbytes + self.f2.nbytes + self.adjacency.nbytes
