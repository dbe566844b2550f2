"""Virtual-GPU kernel for the AA propagation pattern (Bailey 2009).

A single SoA distribution lattice updated in place by two alternating
kernel flavours (see :class:`repro.solver.AASolver` for the algebra):

* **even**: each thread reads its node's Q populations and writes the
  collided results back to the *same addresses* with components swapped —
  fully coalesced in both directions;
* **odd**: each thread gathers component ``i`` from slot
  ``(x - c_i, ibar)`` and scatters the collided result to
  ``(x + c_i, i)`` — the identical address set, so the update is
  race-free in place, but *both* the reads and the writes inherit the
  neighbour displacement and its sector misalignment (the pull kernel
  misaligns only reads, the push kernel only writes).

Traffic: ``2 Q`` doubles per node per step — like ST — while the resident
state is a single lattice (``Q`` doubles per node): the AA pattern fixes
the capacity cost of the distribution representation but not its
bandwidth cost, which is exactly the gap the paper's moment representation
closes. Periodic domains only (boundary parity handling out of scope).
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

__all__ = ["AAKernel"]


class AAKernel:
    """One-thread-per-node in-place AA kernel on a single SoA lattice."""

    name = "AA"

    def __init__(self, problem: KernelProblem, device: GPUDevice,
                 tracker: MemoryTracker | None = None, block_size: int = 256,
                 rho0: np.ndarray | float = 1.0, u0: np.ndarray | None = None,
                 telemetry=None):
        if problem.mode != "periodic":
            raise ValueError("the AA kernel supports periodic domains only")
        self.problem = problem
        self.device = device
        self.tracker = tracker if tracker is not None else MemoryTracker()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
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
        self.f = GlobalArray("f", lat.q * self.n, self.tracker, init=init)
        self.time = 0

    # -- stepping -----------------------------------------------------------
    def step(self) -> LaunchStats:
        lat = self.problem.lat
        bs = self.config.threads_per_block
        self.tracker.flush_cache()
        saved = self.tracker.report
        self.tracker.report = type(saved)()

        even = self.time % 2 == 0
        with self.telemetry.phase("gpu.step"):
            for b in range(self.config.blocks):
                idx = np.arange(b * bs, min((b + 1) * bs, self.n),
                                dtype=np.int64)
                if even:
                    self._even_block(idx)
                else:
                    self._odd_block(idx)

        traffic = self.tracker.report
        self.tracker.report = saved + traffic
        self.time += 1
        stats = LaunchStats(
            config=self.config,
            traffic=traffic,
            n_nodes=self.n,
            kernel_name=f"AA-{'even' if even else 'odd'}/{lat.name}",
        )
        publish_launch(self.telemetry, stats)
        return stats

    def _collide(self, f_in: np.ndarray) -> np.ndarray:
        lat = self.problem.lat
        rho, u = macroscopic(lat, f_in)
        feq = equilibrium(lat, rho, u)
        omega = 1.0 / self.problem.tau
        return feq + (1.0 - omega) * (f_in - feq)

    def _even_block(self, idx: np.ndarray) -> None:
        lat = self.problem.lat
        f_in = np.empty((lat.q, idx.size))
        for i in range(lat.q):
            f_in[i] = self.f.read(i * self.n + idx)
        f_star = self._collide(f_in)
        for i in range(lat.q):
            # Same addresses, swapped components.
            self.f.write(lat.opposite[i] * self.n + idx, f_star[i])

    def _odd_block(self, idx: np.ndarray) -> None:
        lat = self.problem.lat
        coords = node_coords(self.shape, idx)
        src_idx = []
        f_in = np.empty((lat.q, idx.size))
        for i in range(lat.q):
            src = tuple(coords[a] - lat.c[i, a] for a in range(lat.d))
            flat = node_index(self.shape, src)
            src_idx.append(flat)
            f_in[i] = self.f.read(lat.opposite[i] * self.n + flat)
        f_star = self._collide(f_in)
        for i in range(lat.q):
            dest = tuple(coords[a] + lat.c[i, a] for a in range(lat.d))
            self.f.write(i * self.n + node_index(self.shape, dest), f_star[i])

    # -- host access --------------------------------------------------------
    def distribution(self) -> np.ndarray:
        """True pre-collision populations at the current time."""
        lat = self.problem.lat
        flat = self.f.read_untracked()
        stored = np.stack(
            [flat[i * self.n:(i + 1) * self.n].reshape(self.shape, order="F")
             for i in range(lat.q)]
        )
        if self.time % 2 == 0:
            return stored
        grid_axes = tuple(range(lat.d))
        out = np.empty_like(stored)
        for i in range(lat.q):
            out[i] = np.roll(stored[lat.opposite[i]], shift=tuple(lat.c[i]),
                             axis=grid_axes)
        return out

    def macroscopic_fields(self) -> tuple[np.ndarray, np.ndarray]:
        return macroscopic(self.problem.lat, self.distribution())

    @property
    def global_state_bytes(self) -> int:
        """A single lattice — half the ST kernels' footprint."""
        return self.f.nbytes
